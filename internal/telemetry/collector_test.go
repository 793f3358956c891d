package telemetry

import (
	"reflect"
	"testing"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
)

// totalsAt fabricates cumulative totals that grow linearly with n.
func totalsAt(n uint64, cores int) Totals {
	t := Totals{
		LLC: cache.Stats{Accesses: 10 * n, Hits: 7 * n, Misses: 3 * n,
			PrefetchIssued: 2 * n, PrefetchFills: n, UsefulPrefetch: n / 2, LatePrefetch: n / 4, UnusedPrefetch: n / 8},
		DRAM: dram.Stats{Reads: 4 * n, Writes: n, RowHits: 2 * n},
	}
	for i := 0; i < cores; i++ {
		t.PerCore = append(t.PerCore, cpu.Stats{Instructions: n * uint64(i+1), Loads: n, Stores: n / 2, MemOps: n + n/2, MemStall: n / 3})
	}
	return t
}

func TestCollectorSeriesSumsToTotals(t *testing.T) {
	c := NewCollector(100)
	c.Begin(1000)
	if !c.Begun() || c.Finished() {
		t.Fatal("Begin state wrong")
	}
	if c.ShouldSample(1099) {
		t.Fatal("sampled before the first edge")
	}
	if !c.ShouldSample(1100) {
		t.Fatal("no sample at the first edge")
	}
	c.Sample(1100, totalsAt(10, 2))
	// A jump across several edges yields one wider epoch.
	if !c.ShouldSample(1460) {
		t.Fatal("no sample after a multi-edge jump")
	}
	c.Sample(1460, totalsAt(50, 2))
	if c.ShouldSample(1499) {
		t.Fatal("edge not realigned after the jump")
	}
	final := totalsAt(64, 2)
	c.Finish(1525, final)
	if !c.Finished() {
		t.Fatal("Finish did not mark the collector finished")
	}

	series := c.Series()
	if len(series) != 3 {
		t.Fatalf("series has %d epochs, want 3", len(series))
	}
	bounds := [][2]uint64{{1000, 1100}, {1100, 1460}, {1460, 1525}}
	for i, e := range series {
		if e.Index != i || e.StartCycle != bounds[i][0] || e.EndCycle != bounds[i][1] {
			t.Errorf("epoch %d = [%d,%d) index %d, want [%d,%d) index %d",
				i, e.StartCycle, e.EndCycle, e.Index, bounds[i][0], bounds[i][1], i)
		}
	}
	if got := c.MeasuredCycles(); got != 525 {
		t.Errorf("measured cycles = %d, want 525", got)
	}
	if sum := c.SummedTotals(); !reflect.DeepEqual(sum, final) {
		t.Fatalf("summed series %+v != final totals %+v", sum, final)
	}

	// Finish is idempotent and mirrors into the registry.
	c.Finish(2000, totalsAt(99, 2))
	if len(c.Series()) != 3 {
		t.Fatal("Finish after Finish extended the series")
	}
	snap := c.Registry().Snapshot()
	if snap["llc.misses"] != int64(final.LLC.Misses) {
		t.Errorf("mirrored llc.misses = %d, want %d", snap["llc.misses"], final.LLC.Misses)
	}
	if snap["sim.instructions"] != int64(final.Instructions()) {
		t.Errorf("mirrored sim.instructions = %d, want %d", snap["sim.instructions"], final.Instructions())
	}
	if snap["sim.epochs"] != 3 {
		t.Errorf("mirrored sim.epochs = %d, want 3", snap["sim.epochs"])
	}
}

func TestCollectorDefaultEpoch(t *testing.T) {
	c := NewCollector(0)
	if c.EpochCycles() != DefaultEpochCycles {
		t.Fatalf("default epoch = %d, want %d", c.EpochCycles(), DefaultEpochCycles)
	}
}
