package system

import (
	"reflect"
	"strings"
	"testing"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/telemetry"
)

// nextLinePF is a stateless next-line prefetcher.
type nextLinePF struct{}

func (nextLinePF) Name() string { return "nextline" }
func (nextLinePF) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	return []mem.Addr{ev.Addr.BlockAlign() + 64}
}
func (nextLinePF) OnEviction(mem.Addr) {}
func (nextLinePF) StorageBytes() int   { return 0 }

func nextLineFactory(int) prefetch.Prefetcher { return nextLinePF{} }

// TestL1StatsFrozenAtCoreBudget pins the measurement-window fix: each
// core's L1 stats in Results come from the freeze frame taken when that
// core hit its budget, not from a live read at collect time. With
// wildly different trace lengths the fast core's L1 keeps counting for
// the whole drain interval, so the live counter strictly exceeds the
// frozen one.
func TestL1StatsFrozenAtCoreBudget(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeasureInstr = 1000
	// Core 0's trace barely covers the budget; core 1's runs ~20x longer.
	sys := MustNew(cfg, sources(seqTrace(400, 1), seqTrace(8000, 3)), nil)
	res := sys.Run()

	live := sys.l1s[0].Stats()
	frozen := res.L1[0]
	if frozen.Accesses >= live.Accesses {
		t.Fatalf("core 0 L1 stats were not frozen at its budget: frozen %d accesses, live %d",
			frozen.Accesses, live.Accesses)
	}
	// The frame is self-consistent with the CPU freeze taken at the same
	// cycle: every load and store is one L1 access.
	for i, c := range res.PerCore {
		if res.L1[i].Accesses != c.Loads+c.Stores {
			t.Errorf("core %d: L1 accesses %d != loads+stores %d — L1 and CPU frames disagree",
				i, res.L1[i].Accesses, c.Loads+c.Stores)
		}
	}
}

// TestCollectGuardsSnapshotBeforeStart pins the zero-width guard: a
// core whose trace drains during warm-up takes its freeze frame at the
// measurement start itself. Its interval must clamp to 1 cycle, so its
// IPC is 0 rather than 0/0, and the other core's results stay whole.
func TestCollectGuardsSnapshotBeforeStart(t *testing.T) {
	sys := MustNew(tinyConfig(), sources(seqTrace(2000, 1), seqTrace(10, 5)), nil)
	res := sys.Run()

	if sys.snaps[1].cycle != sys.measureStart {
		t.Fatalf("drained core froze at cycle %d, want the measurement start %d", sys.snaps[1].cycle, sys.measureStart)
	}
	if c := res.PerCore[1]; c.Cycles != 1 || c.IPC != 0 {
		t.Fatalf("drained core: %d cycles, IPC %v; want the 1-cycle clamp and IPC 0", c.Cycles, c.IPC)
	}
	if c := res.PerCore[0]; c.Cycles <= 1 || c.Instructions < tinyConfig().MeasureInstr {
		t.Fatalf("live core: %d cycles, %d instructions", c.Cycles, c.Instructions)
	}
}

// TestLifecycleConservation checks the lifecycle counters conserve
// exactly and agree with the cache's own prefetch stats on a real run.
func TestLifecycleConservation(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeasureInstr = 5000
	sys := MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 2)), nextLineFactory)
	res := sys.Run()

	lc := res.Timeliness
	if lc.Issued == 0 || lc.Fills == 0 {
		t.Fatalf("no lifecycle activity: %+v", lc)
	}
	if !lc.Conserves() {
		t.Fatalf("lifecycle counters do not conserve: %+v", lc)
	}
	llc := res.LLC
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"fills", lc.Fills, llc.PrefetchFills},
		{"used (timely+late)", lc.Timely + lc.Late, llc.UsefulPrefetch},
		{"late", lc.Late, llc.LatePrefetch},
		{"unused evicted", lc.UnusedEvicted, llc.UnusedPrefetch},
		{"redundant", lc.Redundant, llc.PrefetchHits},
		{"issued minus dropped", lc.Issued - lc.QueueDropped, llc.PrefetchIssued},
		{"queue dropped", lc.QueueDropped, res.PrefetchDropped},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("lifecycle %s = %d, cache reports %d", c.name, c.got, c.want)
		}
	}
}

// TestTelemetryIsPureObserver is the differential oracle at system
// level: the identical simulation with and without a collector attached
// must produce deeply equal Results, and the collector's epoch series
// must sum back to the end-of-run totals.
func TestTelemetryIsPureObserver(t *testing.T) {
	run := func(withTel bool) (Results, *telemetry.Collector) {
		cfg := tinyConfig()
		cfg.MeasureInstr = 5000
		sys := MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 3)), nextLineFactory)
		var tel *telemetry.Collector
		if withTel {
			tel = telemetry.NewCollector(500)
			sys.EnableTelemetry(tel)
		}
		return sys.Run(), tel
	}
	plain, _ := run(false)
	observed, tel := run(true)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("telemetry changed the simulation:\n off %+v\n on  %+v", plain, observed)
	}
	if !tel.Finished() {
		t.Fatal("collector did not finish with the run")
	}
	if len(tel.Series()) < 2 {
		t.Fatalf("only %d epochs sampled", len(tel.Series()))
	}
	sum := tel.SummedTotals()
	if sum.LLC != observed.LLC {
		t.Fatalf("epoch series sums to %+v, run totals are %+v", sum.LLC, observed.LLC)
	}
	if sum.DRAM != observed.DRAM {
		t.Fatalf("epoch DRAM series sums to %+v, run totals are %+v", sum.DRAM, observed.DRAM)
	}
}

// TestEnableTelemetryAfterWarmupPanics pins the attach-time guard: a
// collector attached once warm-up is over would miss the measurement
// start it samples from and silently record nothing.
func TestEnableTelemetryAfterWarmupPanics(t *testing.T) {
	sys := MustNew(tinyConfig(), sources(seqTrace(4000, 1), seqTrace(4000, 3)), nextLineFactory)
	sys.RunWarmup()
	defer func() {
		if recover() == nil {
			t.Fatal("EnableTelemetry after warm-up did not panic")
		}
	}()
	sys.EnableTelemetry(telemetry.NewCollector(500))
}

// TestResultsStringFormats pins the selfcov= rename, the timeliness
// line, and the baseline-relative variant.
func TestResultsStringFormats(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeasureInstr = 5000
	res := MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 2)), nextLineFactory).Run()

	s := res.String()
	if !strings.Contains(s, "selfcov=") {
		t.Errorf("String lost the selfcov= label:\n%s", s)
	}
	if strings.Contains(s, " cov=") {
		t.Errorf("String still prints the ambiguous cov= label:\n%s", s)
	}
	if !strings.Contains(s, "timely=") || !strings.Contains(s, "late=") {
		t.Errorf("String is missing the timeliness line:\n%s", s)
	}

	wb := res.StringWithBaseline(res.LLC.Misses * 2)
	if !strings.Contains(wb, "vs-baseline: cov=") || !strings.Contains(wb, "overpred=") {
		t.Errorf("StringWithBaseline missing baseline metrics:\n%s", wb)
	}
	if res.StringWithBaseline(0) != s {
		t.Error("StringWithBaseline(0) should render identically to String")
	}
}
