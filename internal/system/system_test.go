package system

import (
	"fmt"
	"reflect"
	"testing"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/trace"
)

// tinyConfig is a small machine for fast, deterministic tests.
func tinyConfig() Config {
	return Config{
		NumCores: 2,
		Core:     cpu.Config{Width: 2, ROBSize: 32, LSQSize: 8},
		L1: cache.Config{
			Name: "L1", SizeBytes: 4 * 1024, Assoc: 4, HitLatency: 2,
		},
		LLC: cache.Config{
			Name: "LLC", SizeBytes: 64 * 1024, Assoc: 8, HitLatency: 10,
		},
		DRAM: dram.Config{
			Channels: 1, BanksPerChannel: 4, RowBytes: 4096,
			TCAS: 40, TRCD: 40, TRP: 40, TController: 10, BusCycles: 10,
		},
		MemoryBytes:   1 << 26,
		PageBytes:     4096,
		Seed:          1,
		WarmupInstr:   100,
		MeasureInstr:  1000,
		PrefetchQueue: 16,
	}
}

// seqTrace produces n sequential block loads.
func seqTrace(n int, stride uint64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400, Addr: mem.Addr(uint64(i) * stride * 64), NonMem: 3}
	}
	return recs
}

func sources(perCore ...[]trace.Record) []trace.Source {
	out := make([]trace.Source, len(perCore))
	for i, recs := range perCore {
		out[i] = trace.NewSliceSource(recs)
	}
	return out
}

func TestValidation(t *testing.T) {
	cfg := tinyConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.NumCores = 0
	if bad.Validate() == nil {
		t.Error("zero cores should fail")
	}
	bad = cfg
	bad.MeasureInstr = 0
	if bad.Validate() == nil {
		t.Error("zero measurement budget should fail")
	}
	bad = cfg
	bad.PrefetchQueue = 0
	if bad.Validate() == nil {
		t.Error("zero prefetch queue should fail")
	}
	if _, err := New(cfg, nil, nil); err == nil {
		t.Error("wrong source count should fail")
	}
}

func TestBaselineRunProducesResults(t *testing.T) {
	cfg := tinyConfig()
	sys := MustNew(cfg, sources(seqTrace(2000, 1), seqTrace(2000, 1)), nil)
	res := sys.Run()
	if len(res.PerCore) != 2 {
		t.Fatalf("per-core results = %d", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.Instructions < cfg.MeasureInstr {
			t.Errorf("core %d retired %d < budget", i, c.Instructions)
		}
		if c.IPC <= 0 || c.IPC > float64(cfg.Core.Width) {
			t.Errorf("core %d IPC = %v out of range", i, c.IPC)
		}
	}
	if res.LLC.Accesses == 0 {
		t.Fatal("no LLC traffic")
	}
	if res.PrefetcherName != "none" {
		t.Fatalf("prefetcher name = %q", res.PrefetcherName)
	}
	if res.WindowInstructions < 2*cfg.MeasureInstr {
		t.Fatalf("window instructions = %d", res.WindowInstructions)
	}
}

// TestNewSystemDefaultsToEventEngine pins the default clock-advance
// strategy: a System that nobody calls SetEngine on skips cycles.
func TestNewSystemDefaultsToEventEngine(t *testing.T) {
	sys := MustNew(tinyConfig(), sources(seqTrace(2000, 1), seqTrace(2000, 1)), nil)
	if got := sys.Engine(); got != EngineEvent {
		t.Fatalf("New system engine = %d, want EngineEvent (%d)", got, EngineEvent)
	}
}

// TestEnginesAgreeOnDrainingTraces runs finite traces of unequal
// length: one core drains in warm-up, one reaches its measurement budget
// early, and the last drains mid-measurement, long after. The event
// engine must not run the early core past the cycle the draining core
// finishes on, although that comes sooner than its instruction budget
// alone allows.
func TestEnginesAgreeOnDrainingTraces(t *testing.T) {
	// run returns the results and every core's final counters, which
	// would also count any tick past the end of the phase.
	run := func(e Engine) (Results, []cpu.Stats) {
		cfg := tinyConfig()
		cfg.NumCores = 3
		cfg.WarmupInstr, cfg.MeasureInstr = 200, 3000
		sys := MustNew(cfg, sources(seqTrace(30, 7), seqTrace(40000, 0), seqTrace(700, 64)), nextLineFactory)
		sys.SetEngine(e)
		res := sys.Run()
		var final []cpu.Stats
		for _, c := range sys.Cores() {
			final = append(final, c.Stats())
		}
		return res, final
	}
	lock, lockFinal := run(EngineLockstep)
	ev, evFinal := run(EngineEvent)
	if !reflect.DeepEqual(lock, ev) || !reflect.DeepEqual(lockFinal, evFinal) {
		t.Fatalf("engines diverged on draining traces:\nlockstep %#v\n  %+v\nevent    %#v\n  %+v", lock, lockFinal, ev, evFinal)
	}
	if c := lock.PerCore; c[1].Cycles >= c[2].Cycles || c[2].Instructions >= 3000 {
		t.Fatalf("want core 1 to reach its budget before core 2 drains: %+v", c)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results {
		sys := MustNew(tinyConfig(), sources(seqTrace(2000, 7), seqTrace(2000, 3)), nil)
		return sys.Run()
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles || a.LLC != b.LLC || a.DRAM != b.DRAM {
		t.Fatal("identical configurations must produce identical results")
	}
}

// recordingPrefetcher issues next-line prefetches and records what it saw.
type recordingPrefetcher struct {
	accesses  int
	evictions int
}

func (p *recordingPrefetcher) Name() string { return "recording" }

func (p *recordingPrefetcher) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	p.accesses++
	return []mem.Addr{ev.Addr.BlockAlign() + 64}
}

func (p *recordingPrefetcher) OnEviction(mem.Addr) { p.evictions++ }

func (p *recordingPrefetcher) StorageBytes() int { return 123 }

func TestPrefetcherSeesLLCTraffic(t *testing.T) {
	var pfs []*recordingPrefetcher
	factory := func(core int) prefetch.Prefetcher {
		p := &recordingPrefetcher{}
		pfs = append(pfs, p)
		return p
	}
	cfg := tinyConfig()
	cfg.MeasureInstr = 10_000 // touch >LLC-capacity blocks so evictions happen
	sys := MustNew(cfg, sources(seqTrace(3000, 9), seqTrace(3000, 9)), factory)
	res := sys.Run()
	if len(pfs) != 2 {
		t.Fatalf("factory built %d instances", len(pfs))
	}
	for i, p := range pfs {
		if p.accesses == 0 {
			t.Errorf("prefetcher %d observed no accesses", i)
		}
		if p.evictions == 0 {
			t.Errorf("prefetcher %d observed no evictions (tiny LLC must evict)", i)
		}
	}
	if res.LLC.PrefetchIssued == 0 {
		t.Fatal("no prefetches reached the LLC")
	}
	if res.PrefetcherName != "recording" || res.StorageBytes != 123 {
		t.Fatalf("results identity: %q %d", res.PrefetcherName, res.StorageBytes)
	}
}

func TestNextLinePrefetchCoversSequentialStream(t *testing.T) {
	factory := func(core int) prefetch.Prefetcher { return &recordingPrefetcher{} }
	base := MustNew(tinyConfig(), sources(seqTrace(5000, 1), seqTrace(5000, 1)), nil).Run()
	res := MustNew(tinyConfig(), sources(seqTrace(5000, 1), seqTrace(5000, 1)), factory).Run()
	if res.LLC.UsefulPrefetch == 0 {
		t.Fatal("next-line prefetching a sequential stream must be useful")
	}
	if res.Coverage() <= 0.3 {
		t.Fatalf("coverage = %v", res.Coverage())
	}
	if res.LLC.Misses >= base.LLC.Misses {
		t.Fatalf("prefetching did not reduce misses: %d vs %d", res.LLC.Misses, base.LLC.Misses)
	}
}

// floodPrefetcher issues many prefetches per access to exercise the queue.
type floodPrefetcher struct{}

func (floodPrefetcher) Name() string { return "flood" }

func (floodPrefetcher) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	out := make([]mem.Addr, 64)
	for i := range out {
		out[i] = ev.Addr.BlockAlign() + mem.Addr((i+1)*64)
	}
	return out
}

func (floodPrefetcher) OnEviction(mem.Addr) {}

func (floodPrefetcher) StorageBytes() int { return 0 }

func TestPrefetchQueueDropsExcess(t *testing.T) {
	factory := func(int) prefetch.Prefetcher { return floodPrefetcher{} }
	sys := MustNew(tinyConfig(), sources(seqTrace(3000, 16), seqTrace(3000, 16)), factory)
	res := sys.Run()
	if res.PrefetchDropped == 0 {
		t.Fatal("a 64-deep burst into a 16-entry queue must drop prefetches")
	}
}

func TestResultsMetrics(t *testing.T) {
	r := Results{
		PerCore: []CoreResult{{IPC: 1.5, Instructions: 100}, {IPC: 0.5, Instructions: 100}},
		LLC: cache.Stats{
			Misses: 50, UsefulPrefetch: 50, PrefetchFills: 100, UnusedPrefetch: 25,
		},
		WindowInstructions: 200,
	}
	if r.Throughput() != 2.0 {
		t.Fatalf("Throughput = %v", r.Throughput())
	}
	if r.TotalInstructions() != 200 {
		t.Fatalf("TotalInstructions = %v", r.TotalInstructions())
	}
	if r.Coverage() != 0.5 {
		t.Fatalf("Coverage = %v", r.Coverage())
	}
	// Miss reduction: 50 misses against 100 baseline misses = 50% covered.
	if r.CoverageVsBaseline(100) != 0.5 {
		t.Fatalf("CoverageVsBaseline = %v", r.CoverageVsBaseline(100))
	}
	if r.CoverageVsBaseline(10) != 0 {
		t.Fatal("more misses than baseline should clamp to 0, not go negative")
	}
	if r.CoverageVsBaseline(0) != 0 {
		t.Fatal("zero baseline should not divide")
	}
	if r.Overprediction(100) != 0.25 {
		t.Fatalf("Overprediction = %v", r.Overprediction(100))
	}
	if r.Accuracy() != 0.5 {
		t.Fatalf("Accuracy = %v", r.Accuracy())
	}
	if r.LLCMPKI() != 250 {
		t.Fatalf("LLCMPKI = %v", r.LLCMPKI())
	}
	if r.String() == "" {
		t.Fatal("String should render")
	}
}

func TestTraceExhaustionEndsRun(t *testing.T) {
	// Traces shorter than the measurement budget must still terminate.
	cfg := tinyConfig()
	cfg.MeasureInstr = 1 << 40
	sys := MustNew(cfg, sources(seqTrace(500, 1), seqTrace(100, 1)), nil)
	res := sys.Run()
	if res.PerCore[0].Instructions == 0 {
		t.Fatal("no instructions measured")
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCores != 4 || cfg.Core.Width != 4 || cfg.Core.ROBSize != 256 || cfg.Core.LSQSize != 64 {
		t.Fatalf("core config deviates from Table I: %+v", cfg.Core)
	}
	if cfg.L1.SizeBytes != 64*1024 || cfg.L1.Assoc != 8 {
		t.Fatalf("L1 config deviates from Table I: %+v", cfg.L1)
	}
	if cfg.LLC.SizeBytes != 8<<20 || cfg.LLC.Assoc != 16 || cfg.LLC.HitLatency != 15 {
		t.Fatalf("LLC config deviates from Table I: %+v", cfg.LLC)
	}
	scaled := cfg.Scaled(1, 2)
	if scaled.WarmupInstr != 1 || scaled.MeasureInstr != 2 {
		t.Fatal("Scaled did not apply budgets")
	}
}

func TestAttachL1Mode(t *testing.T) {
	var pfs []*recordingPrefetcher
	factory := func(core int) prefetch.Prefetcher {
		p := &recordingPrefetcher{}
		pfs = append(pfs, p)
		return p
	}
	cfg := tinyConfig()
	cfg.PrefetchAt = AttachL1
	cfg.MeasureInstr = 10_000
	sys := MustNew(cfg, sources(seqTrace(3000, 9), seqTrace(3000, 9)), factory)
	res := sys.Run()
	for i, p := range pfs {
		if p.accesses == 0 {
			t.Errorf("prefetcher %d saw no L1 accesses", i)
		}
		if p.evictions == 0 {
			t.Errorf("prefetcher %d saw no L1 evictions (4 KB L1 must evict)", i)
		}
	}
	// Prefetch fills land in the L1s (missing ones transit the LLC too).
	l1Fills := uint64(0)
	for _, s := range res.L1 {
		l1Fills += s.PrefetchFills
	}
	if l1Fills == 0 {
		t.Fatal("no prefetch fills reached the L1s")
	}
	if AttachL1.String() != "L1" || AttachLLC.String() != "LLC" {
		t.Fatal("attach level names wrong")
	}
}

// feedbackPrefetcher records outcome feedback routed by the system.
type feedbackPrefetcher struct {
	recordingPrefetcher
	useful, unused int
}

func (p *feedbackPrefetcher) OnPrefetchOutcome(useful bool) {
	if useful {
		p.useful++
	} else {
		p.unused++
	}
}

func TestOutcomeRouting(t *testing.T) {
	var pfs []*feedbackPrefetcher
	factory := func(core int) prefetch.Prefetcher {
		p := &feedbackPrefetcher{}
		pfs = append(pfs, p)
		return p
	}
	cfg := tinyConfig()
	cfg.MeasureInstr = 10_000
	sys := MustNew(cfg, sources(seqTrace(3000, 1), seqTrace(3000, 1)), factory)
	res := sys.Run()
	if res.LLC.UsefulPrefetch == 0 {
		t.Fatal("expected useful prefetches on a sequential stream")
	}
	gotUseful := 0
	for _, p := range pfs {
		gotUseful += p.useful
	}
	if gotUseful == 0 {
		t.Fatal("useful outcomes were not routed back to the prefetchers")
	}
}

// countingPF counts eviction notifications; shared across cores it is
// the shared-metadata ablation's shape in miniature.
type countingPF struct {
	evictions int
}

func (p *countingPF) Name() string                             { return "counting" }
func (p *countingPF) OnAccess(prefetch.AccessEvent) []mem.Addr { return nil }
func (p *countingPF) OnEviction(mem.Addr)                      { p.evictions++ }
func (p *countingPF) StorageBytes() int                        { return 0 }

// evictionConfig shrinks the LLC so a short sequential sweep overflows
// it and generates evictions.
func evictionConfig() Config {
	cfg := tinyConfig()
	cfg.NumCores = 4
	cfg.LLC.SizeBytes = 16 * 1024
	cfg.LLC.Assoc = 4
	return cfg
}

// TestEvictionBroadcastDeduplicates is the regression test for the
// shared-metadata fan-out: New precomputes the unique-instance list, so
// a factory handing every core the same instance must notify it exactly
// once per LLC eviction — the behaviour the old per-eviction duplicate
// scan implemented in O(cores²) time — while private instances each see
// every eviction.
func TestEvictionBroadcastDeduplicates(t *testing.T) {
	cfg := evictionConfig()
	mkSources := func() []trace.Source {
		perCore := make([][]trace.Record, cfg.NumCores)
		for i := range perCore {
			perCore[i] = seqTrace(3000, uint64(i+1))
		}
		return sources(perCore...)
	}

	shared := &countingPF{}
	sys := MustNew(cfg, mkSources(), func(int) prefetch.Prefetcher { return shared })
	if got := len(sys.evictPFs); got != 1 {
		t.Fatalf("shared factory: unique eviction list has %d entries, want 1", got)
	}
	sys.Run()
	if shared.evictions == 0 {
		t.Fatal("LLC never evicted; the machine is too large for the trace")
	}

	privates := make([]*countingPF, cfg.NumCores)
	sys = MustNew(cfg, mkSources(), func(core int) prefetch.Prefetcher {
		privates[core] = &countingPF{}
		return privates[core]
	})
	if got := len(sys.evictPFs); got != cfg.NumCores {
		t.Fatalf("private factory: unique eviction list has %d entries, want %d", got, cfg.NumCores)
	}
	sys.Run()

	// Identical traces, identical machine: the eviction stream is the
	// same, so the shared instance must have seen exactly what any one
	// private instance saw — once per eviction, not once per core.
	for i, p := range privates {
		if p.evictions != shared.evictions {
			t.Fatalf("private[%d] saw %d evictions, shared instance saw %d — dedup broke the broadcast",
				i, p.evictions, shared.evictions)
		}
	}
}

// TestWithCoresScaling pins the Table I extrapolation: LLC capacity and
// physical memory stay per-core-constant, DRAM channels stay a power of
// two tracking core count, and every scaled config validates.
func TestWithCoresScaling(t *testing.T) {
	base := DefaultConfig()
	for _, tc := range []struct {
		cores    int
		llcBytes int
		channels int
	}{
		{4, 8 << 20, 2},
		{8, 16 << 20, 4},
		{16, 32 << 20, 8},
		{64, 128 << 20, 32},
	} {
		cfg := base.WithCores(tc.cores)
		if cfg.NumCores != tc.cores {
			t.Fatalf("WithCores(%d).NumCores = %d", tc.cores, cfg.NumCores)
		}
		if cfg.LLC.SizeBytes != tc.llcBytes {
			t.Errorf("WithCores(%d) LLC = %d bytes, want %d", tc.cores, cfg.LLC.SizeBytes, tc.llcBytes)
		}
		if cfg.DRAM.Channels != tc.channels {
			t.Errorf("WithCores(%d) channels = %d, want %d", tc.cores, cfg.DRAM.Channels, tc.channels)
		}
		if cfg.MemoryBytes != uint64(tc.cores)<<30 {
			t.Errorf("WithCores(%d) memory = %d bytes", tc.cores, cfg.MemoryBytes)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("WithCores(%d) invalid: %v", tc.cores, err)
		}
	}
	if fmt.Sprintf("%+v", base.WithCores(4)) != fmt.Sprintf("%+v", base) {
		t.Error("WithCores(4) should reproduce the Table I anchor exactly")
	}
}
