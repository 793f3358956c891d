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

	// Finish is idempotent and publishes the totals.
	c.Finish(2000, totalsAt(99, 2))
	if len(c.Series()) != 3 {
		t.Fatal("Finish after Finish extended the series")
	}
	snap := c.Metrics()
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

// TestCollectorMirrorsAtEpochClose pins that the published snapshot is
// live during the run: the debug server reads it between epochs, long
// before Finish.
func TestCollectorMirrorsAtEpochClose(t *testing.T) {
	c := NewCollector(100)
	if n := len(c.Metrics()); n != 0 {
		t.Fatalf("snapshot before the first epoch has %d keys, want none", n)
	}
	c.Begin(1000)
	c.Sample(1100, totalsAt(10, 2))
	c.Sample(1200, totalsAt(25, 2))
	snap := c.Metrics()
	want := c.SummedTotals().LLC.Accesses
	if got := snap["llc.accesses"]; got != int64(want) || want == 0 {
		t.Errorf("llc.accesses before Finish = %d, want the summed series' %d", got, want)
	}
	if snap["sim.epochs"] != 2 {
		t.Errorf("sim.epochs before Finish = %d, want 2", snap["sim.epochs"])
	}
}

// TestSnapshotIncludesHistograms pins the four "prefetch.*_cycles"
// keys: present at zero in a baseline run (no lifecycle), and with a
// lifecycle their counts are its Timely and Late and their sums its wait
// cycles.
func TestSnapshotIncludesHistograms(t *testing.T) {
	keys := []string{
		"prefetch.use_margin_cycles.count", "prefetch.use_margin_cycles.sum",
		"prefetch.late_wait_cycles.count", "prefetch.late_wait_cycles.sum",
	}
	base := NewCollector(100)
	base.Begin(0)
	base.Finish(50, totalsAt(1, 1))
	snap := base.Metrics()
	for _, k := range keys {
		if v, ok := snap[k]; !ok || v != 0 {
			t.Errorf("baseline %s = %d (present %v), want 0", k, v, ok)
		}
	}
	if len(snap) != 25 {
		t.Errorf("baseline snapshot has %d keys, want 25: %v", len(snap), snap.Names())
	}

	lc := NewLifecycle(2)
	c := NewCollector(100)
	c.BindLifecycle(lc)
	c.Begin(0)
	lc.Predicted(0, 4)
	for i := 0; i < 4; i++ {
		lc.PrefetchFill(i % 2)
	}
	lc.PrefetchUse(0, false, 3)
	lc.PrefetchUse(1, false, 5)
	lc.PrefetchUse(0, true, 11)
	c.Finish(50, totalsAt(1, 2))
	snap = c.Metrics()
	want := map[string]int64{keys[0]: 2, keys[1]: 8, keys[2]: 1, keys[3]: 11}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d", k, snap[k], v)
		}
	}
	if snap[keys[0]] != snap["prefetch.timely"] || snap[keys[2]] != snap["prefetch.late"] {
		t.Errorf("histogram counts %d/%d differ from timely/late %d/%d",
			snap[keys[0]], snap[keys[2]], snap["prefetch.timely"], snap["prefetch.late"])
	}
	if len(snap) != 33 {
		t.Errorf("snapshot with a lifecycle has %d keys, want 33: %v", len(snap), snap.Names())
	}
	names := snap.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestCollectorDefaultEpoch(t *testing.T) {
	c := NewCollector(0)
	if c.EpochCycles() != DefaultEpochCycles {
		t.Fatalf("default epoch = %d, want %d", c.EpochCycles(), DefaultEpochCycles)
	}
}
