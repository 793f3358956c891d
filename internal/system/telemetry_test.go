package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bingo/internal/checkpoint"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/telemetry"
)

// nextLinePF is a stateless, checkpointable next-line prefetcher for
// checkpoint/resume tests (recordingPrefetcher is not checkpointable).
type nextLinePF struct{}

func (nextLinePF) Name() string { return "nextline" }
func (nextLinePF) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	return []mem.Addr{ev.Addr.BlockAlign() + 64}
}
func (nextLinePF) OnEviction(mem.Addr)                  {}
func (nextLinePF) StorageBytes() int                    { return 0 }
func (nextLinePF) SaveState(w *checkpoint.Writer) error { w.Version(1); return w.Err() }
func (nextLinePF) LoadState(r *checkpoint.Reader) error { r.Version(1); return r.Err() }

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

// TestCollectGuardsSnapshotBeforeStart pins the underflow fix: a freeze
// frame whose cycle predates the measurement start (possible when a
// resumed run paused exactly at the boundary) must clamp to 1 cycle, not
// wrap the uint64 subtraction into an astronomically long interval.
func TestCollectGuardsSnapshotBeforeStart(t *testing.T) {
	sys := MustNew(tinyConfig(), sources(seqTrace(2000, 1), seqTrace(2000, 1)), nil)
	sys.Run()

	snaps := make([]coreSnapshot, len(sys.snaps))
	copy(snaps, sys.snaps)
	snaps[0].cycle = sys.measureStart - 1 // predates the window
	res := sys.collect(sys.measureStart, snaps)
	if res.PerCore[0].Cycles != 1 {
		t.Fatalf("pre-start snapshot yielded %d cycles, want clamp to 1", res.PerCore[0].Cycles)
	}
	if res.PerCore[0].IPC < 0 || res.PerCore[0].IPC > 1e12 {
		t.Fatalf("pre-start snapshot IPC = %v (underflow leaked through)", res.PerCore[0].IPC)
	}
}

// TestCheckpointAtMeasureBoundary drives the same hazard through the
// production path: save at the exact warm-up → measurement boundary,
// restore, and finish. The restored run must produce the identical
// Results, with no wrapped cycle counts.
func TestCheckpointAtMeasureBoundary(t *testing.T) {
	build := func() *System {
		return MustNew(tinyConfig(), sources(seqTrace(2000, 1), seqTrace(500, 5)), nextLineFactory)
	}
	straight := build().Run()

	sys := build()
	sys.RunWarmup() // leaves the system exactly at the boundary
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	res := restored.Run()
	if !reflect.DeepEqual(res, straight) {
		t.Fatalf("boundary checkpoint diverged:\n got %+v\nwant %+v", res, straight)
	}
	for i, c := range res.PerCore {
		if c.Cycles > 1<<40 {
			t.Fatalf("core %d cycles = %d — measurement interval wrapped", i, c.Cycles)
		}
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

// TestTelemetryCheckpointResume pauses a telemetry-on run mid-
// measurement, round-trips it through a checkpoint, and finishes on the
// restored system: Results and the full epoch series must match the
// straight-through run exactly.
func TestTelemetryCheckpointResume(t *testing.T) {
	build := func() (*System, *telemetry.Collector) {
		cfg := tinyConfig()
		cfg.MeasureInstr = 5000
		sys := MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 3)), nextLineFactory)
		tel := telemetry.NewCollector(500)
		sys.EnableTelemetry(tel)
		return sys, tel
	}

	straightSys, straightTel := build()
	straight := straightSys.Run()

	sys, _ := build()
	sys.RunWarmup()
	sys.SetPauseAt(sys.measureStart + 1200)
	if _, p := sys.RunResumable(); !p {
		t.Fatal("run completed before the pause point")
	}
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, restoredTel := build()
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, p := restored.RunResumable()
	if p {
		t.Fatal("restored run paused unexpectedly")
	}
	if !reflect.DeepEqual(res, straight) {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", res, straight)
	}
	if !reflect.DeepEqual(restoredTel.Series(), straightTel.Series()) {
		t.Fatalf("resumed epoch series diverged:\n got %+v\nwant %+v", restoredTel.Series(), straightTel.Series())
	}
}

// TestTelemetryAttachAfterWarmRestore saves a checkpoint at the
// measurement boundary without telemetry, then restores it into a
// telemetry-enabled run. Resync puts the collector on
// the measurement-start epoch grid, so the series matches a cold
// telemetry-on run exactly.
func TestTelemetryAttachAfterWarmRestore(t *testing.T) {
	build := func() *System {
		cfg := tinyConfig()
		cfg.MeasureInstr = 5000
		return MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 3)), nextLineFactory)
	}

	coldSys := build()
	coldTel := telemetry.NewCollector(500)
	coldSys.EnableTelemetry(coldTel)
	cold := coldSys.Run()

	warm := build()
	warm.RunWarmup()
	var buf bytes.Buffer
	if err := warm.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored := build()
	warmTel := telemetry.NewCollector(500)
	restored.EnableTelemetry(warmTel)
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	res := restored.Run()
	if !reflect.DeepEqual(res, cold) {
		t.Fatalf("warm-started run diverged:\n got %+v\nwant %+v", res, cold)
	}
	if !reflect.DeepEqual(warmTel.Series(), coldTel.Series()) {
		t.Fatalf("warm-started epoch series diverged:\n got %+v\nwant %+v", warmTel.Series(), coldTel.Series())
	}
}

// TestTelemetryCheckpointRestoresWithoutCollector is the reverse
// direction: checkpoints saved with a collector attached, at the
// measurement boundary and mid-measurement, restore into a system with
// no collector (bingosim -resume without telemetry flags). The
// collector section is discarded, and Results match a cold run.
func TestTelemetryCheckpointRestoresWithoutCollector(t *testing.T) {
	build := func() *System {
		cfg := tinyConfig()
		cfg.MeasureInstr = 5000
		return MustNew(cfg, sources(seqTrace(4000, 1), seqTrace(4000, 3)), nextLineFactory)
	}
	cold := build().Run()

	for _, tc := range []struct {
		name    string
		advance func(*System)
	}{
		{"measure-boundary", func(sys *System) { sys.RunWarmup() }},
		{"mid-measurement", func(sys *System) {
			sys.RunWarmup()
			sys.SetPauseAt(sys.measureStart + 1200)
			if _, p := sys.RunResumable(); !p {
				t.Fatal("run completed before the pause point")
			}
			sys.SetPauseAt(0)
		}},
	} {
		saved := build()
		saved.EnableTelemetry(telemetry.NewCollector(500))
		tc.advance(saved)
		var buf bytes.Buffer
		if err := saved.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		restored := build()
		if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res := restored.Run(); !reflect.DeepEqual(res, cold) {
			t.Errorf("%s: collector-free restore diverged:\n got %+v\nwant %+v", tc.name, res, cold)
		}
	}
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
