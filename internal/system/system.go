package system

import (
	"fmt"
	"slices"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/telemetry"
	"bingo/internal/trace"
	"bingo/internal/vm"
)

// System is one assembled machine instance. Build it with New, provide a
// trace source per core, then call Run once.
//
// A System is driven by one goroutine from construction through Run,
// which ticks every core in index order. Distinct System instances are
// fully independent and safe to run concurrently — the parallel experiment
// engine relies on this. Audit note: all mutable simulation state
// (caches and their LRU clocks, DRAM banks, translator RNG, prefetcher
// metadata) hangs off the System built by New; neither this package nor its dependencies keep package-level
// mutable state, which is what keeps `go test -race` clean over the
// parallel harness.
type System struct {
	cfg   Config
	xlat  *vm.Translator
	dram  *dram.DRAM
	llc   *cache.Cache
	l1s   []*cache.Cache
	cores []*cpu.Core
	pfs   []prefetch.Prefetcher
	clock uint64

	// lc tracks every prefetched block's lifecycle (issue → fill → use
	// or eviction). It is always on when a prefetcher is attached — the
	// counters are a handful of integer adds per prefetch event — so
	// timeliness lands in every Results. tel, when attached via
	// EnableTelemetry, additionally samples the epoch time-series; both
	// are pure observers and never change simulated state.
	lc  *telemetry.Lifecycle
	tel *telemetry.Collector

	// Per-core in-flight prefetch completion times: the prefetch queue.
	// When a core's queue is full, further predictions are dropped —
	// exactly what a hardware prefetch queue does under bandwidth
	// pressure, and the mechanism that keeps an over-eager prefetcher
	// from monopolising DRAM. pfDropped counts drops per core; Results
	// sums it.
	pfInflight [][]uint64
	pfDropped  []uint64

	// evictPFs is the deduplicated prefetcher list LLC evictions fan out
	// to (AttachLLC mode): precomputed once by New so a shared-metadata
	// factory — every core holding the same instance — costs one
	// notification per eviction instead of an O(cores²) duplicate scan.
	evictPFs []prefetch.Prefetcher

	// Run-progress state. Keeping it on the System (rather than local to
	// Run) is what lets RunWarmup stop at the measurement boundary and Run
	// continue from there: phase records which budget the loop is working
	// toward, measureStart the cycle measurement began, and snaps the
	// per-core freeze frames taken as each core reaches its budget.
	phase        uint8
	measureStart uint64
	snaps        []coreSnapshot

	// engine selects how the loop advances the machine (see engine.go),
	// and engineStats counts the event engine's global-loop iterations.
	engine      Engine
	engineStats EngineStats
	// reachAt and pending are the event engine's per-core scratch,
	// allocated once here so a phase allocates nothing.
	reachAt, pending []uint64

	san sanState // runtime invariant sanitizer (empty without -tags=san)
}

// Run phases. A freshly built system is in warm-up; measurement begins
// after the stats reset at the warm-up boundary; done means collect has
// everything it needs.
const (
	phaseWarmup uint8 = iota
	phaseMeasure
	phaseDone
)

// New assembles a system. sources must have one trace source per core;
// factory may be nil for the no-prefetcher baseline.
func New(cfg Config, sources []trace.Source, factory prefetch.Factory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.NumCores {
		return nil, fmt.Errorf("system: %d trace sources for %d cores", len(sources), cfg.NumCores)
	}

	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLC, cache.MemoryLevel{Mem: d})
	if err != nil {
		return nil, err
	}
	xlat, err := vm.NewTranslator(cfg.MemoryBytes, cfg.PageBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}

	s := &System{cfg: cfg, xlat: xlat, dram: d, llc: llc}
	s.reachAt, s.pending = make([]uint64, cfg.NumCores), make([]uint64, cfg.NumCores)

	if factory != nil {
		s.pfs = make([]prefetch.Prefetcher, cfg.NumCores)
		s.pfInflight = make([][]uint64, cfg.NumCores)
		s.pfDropped = make([]uint64, cfg.NumCores)
		s.lc = telemetry.NewLifecycle(cfg.NumCores)
		for i := range s.pfs {
			s.pfs[i] = factory(i)
			s.pfInflight[i] = make([]uint64, 0, cfg.PrefetchQueue)
		}
		// Deduplicate the eviction fan-out list once: a shared-metadata
		// factory hands every core the same instance, and scanning for
		// duplicates per eviction is O(cores²) at 64 cores.
		for i, p := range s.pfs {
			if !slices.Contains(s.pfs[:i], p) {
				s.evictPFs = append(s.evictPFs, p)
			}
		}
		if cfg.PrefetchAt == AttachLLC {
			llc.SetEvictionListener(evictionBroadcast{pfs: s.evictPFs})
			llc.SetOutcomeFunc(s.routeOutcome)
			llc.SetPrefetchProbe(s.lc)
		}
	}

	for i := 0; i < cfg.NumCores; i++ {
		l1cfg := cfg.L1
		l1cfg.Name = l1Name(i)
		l1, err := cache.New(l1cfg, llcPort{sys: s})
		if err != nil {
			return nil, err
		}
		s.l1s = append(s.l1s, l1)
		var port cache.Level = l1
		if s.pfs != nil && cfg.PrefetchAt == AttachL1 {
			// The prefetcher observes this core's L1 accesses and fills
			// into the L1; residencies end on L1 evictions.
			l1.SetEvictionListener(s.pfs[i])
			l1.SetOutcomeFunc(s.routeOutcome)
			l1.SetPrefetchProbe(s.lc)
			port = l1Port{sys: s, core: i, l1: l1}
		}
		core, err := cpu.New(cfg.Core, i, sources[i], s.xlat, port)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, core)
	}
	return s, nil
}

// l1Name is the name of core's L1; it overrides Config.L1.Name.
func l1Name(core int) string { return fmt.Sprintf("L1[%d]", core) }

// l1Port wraps a core's private L1 with its prefetcher (AttachL1 mode).
type l1Port struct {
	sys  *System
	core int
	l1   *cache.Cache
}

// Access implements cache.Level.
func (p l1Port) Access(now uint64, req cache.Request) cache.Result {
	res := p.l1.Access(now, req)
	p.sys.issuePrefetches(p.l1, p.core, now, req, res)
	return res
}

// MustNew panics on configuration error.
func MustNew(cfg Config, sources []trace.Source, factory prefetch.Factory) *System {
	s, err := New(cfg, sources, factory)
	if err != nil {
		panic(err)
	}
	return s
}

// evictionBroadcast fans LLC evictions out to the unique prefetcher
// instances: each checks its own residency tracker (paper: private
// prefetchers, no metadata sharing). New precomputes the deduplicated
// list (s.evictPFs), so when a factory hands the same instance to
// several cores (the shared-metadata ablation) it is notified exactly
// once per eviction without a per-eviction duplicate scan.
type evictionBroadcast struct {
	pfs []prefetch.Prefetcher
}

func (b evictionBroadcast) OnEviction(addr mem.Addr) {
	for _, p := range b.pfs {
		p.OnEviction(addr)
	}
}

// llcPort is what each L1 forwards misses to: the shared LLC, with the
// requesting core's prefetcher observing every demand access and its
// predictions issued back into the LLC immediately (prefetch directly
// into the LLC, no prefetch buffer — paper §V-B).
type llcPort struct {
	sys *System
}

// Access implements cache.Level.
func (p llcPort) Access(now uint64, req cache.Request) cache.Result {
	s := p.sys
	res := s.llc.Access(now, req)
	if s.pfs == nil || req.Kind == cache.Prefetch || s.cfg.PrefetchAt != AttachLLC {
		return res
	}
	s.issuePrefetches(s.llc, req.Core, now, req, res)
	return res
}

// issuePrefetches is the one prefetch-issue path: core's prefetcher observes
// the demand access req, which target (the cache the prefetcher fills)
// answered with res, and each predicted block is issued into target
// while the core's prefetch queue has room. The rest are dropped and
// counted. A demand access hits exactly when target itself supplied the
// data, so the block was present before the access; a miss reports the
// level below.
func (s *System) issuePrefetches(target *cache.Cache, core int, now uint64, req cache.Request, res cache.Result) {
	addrs := s.pfs[core].OnAccess(prefetch.AccessEvent{
		Addr:  req.Addr,
		PC:    req.PC,
		Core:  req.Core,
		Write: req.Kind == cache.Write,
		Hit:   res.HitLevel == target.Name(),
	})
	s.lc.Predicted(core, len(addrs))
	for i, a := range addrs {
		if !s.pfReserve(core, now) {
			s.pfDropped[core] += uint64(len(addrs) - i)
			s.lc.QueueDropped(core, len(addrs)-i)
			break
		}
		pres := target.Access(now, cache.Request{Addr: a, PC: req.PC, Core: req.Core, Kind: cache.Prefetch})
		s.pfInflight[core] = append(s.pfInflight[core], pres.CompleteAt)
	}
}

// routeOutcome delivers a prefetched line's fate to the issuing core's
// prefetcher when it opted in via prefetch.OutcomeObserver.
func (s *System) routeOutcome(core int, useful bool) {
	if core < 0 || core >= len(s.pfs) {
		return
	}
	if obs, ok := s.pfs[core].(prefetch.OutcomeObserver); ok {
		obs.OnPrefetchOutcome(useful)
	}
}

// pfReserve admits a new in-flight prefetch for the core if its queue has
// room, compacting completed entries lazily.
func (s *System) pfReserve(core int, now uint64) bool {
	q := s.pfInflight[core]
	if len(q) < s.cfg.PrefetchQueue {
		return true
	}
	live := q[:0]
	for _, t := range q {
		if t > now {
			live = append(live, t)
		}
	}
	s.pfInflight[core] = live
	return len(live) < s.cfg.PrefetchQueue
}

// LLC exposes the shared cache (read-only use intended).
func (s *System) LLC() *cache.Cache { return s.llc }

// DRAM exposes the memory model.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// Prefetchers returns the per-core prefetcher instances (nil when running
// the baseline).
func (s *System) Prefetchers() []prefetch.Prefetcher { return s.pfs }

// Cores returns the core models.
func (s *System) Cores() []*cpu.Core { return s.cores }

// Clock returns the current cycle.
func (s *System) Clock() uint64 { return s.clock }

// Run executes warm-up then measurement and returns the results. It may
// be called once per System, or once after RunWarmup, in which case it
// runs just the measurement phase.
//
// Measurement follows the usual multi-programmed methodology: every core
// keeps executing (so shared-resource contention stays realistic) until
// all cores have retired their budget, but each core's instruction count
// and cycle interval are snapshotted the moment it reaches its own budget.
func (s *System) Run() Results {
	if s.phase == phaseWarmup {
		s.RunWarmup()
	}
	if s.phase == phaseMeasure {
		s.runUntil(s.cfg.MeasureInstr, func(i int, cycle uint64) {
			if !s.snaps[i].taken {
				s.snaps[i] = coreSnapshot{taken: true, cycle: cycle, stats: s.cores[i].Stats(), l1: s.l1s[i].Stats()}
			}
		})
		for i := range s.snaps {
			if !s.snaps[i].taken { // trace exhausted before reaching budget
				s.snaps[i] = coreSnapshot{taken: true, cycle: s.clock, stats: s.cores[i].Stats(), l1: s.l1s[i].Stats()}
			}
		}
		s.sanAtRunEnd()
		if s.tel != nil {
			s.tel.Finish(s.clock, s.telTotals())
		}
		s.phase = phaseDone
	}
	return s.collect(s.measureStart, s.snaps)
}

// RunWarmup advances through the warm-up phase only, leaving the system
// at the measurement boundary (stats reset, measurement clock marked),
// so the phases can be timed apart; Run then executes just the
// measurement phase.
func (s *System) RunWarmup() {
	if s.phase != phaseWarmup {
		panic("system: RunWarmup after warm-up already completed")
	}
	if s.cfg.WarmupInstr > 0 {
		s.runUntil(s.cfg.WarmupInstr, func(int, uint64) {})
	}
	s.enterMeasure()
}

// RunResumable is Run under its older two-result signature. A run never
// pauses, so the second result is always false.
func (s *System) RunResumable() (Results, bool) {
	return s.Run(), false
}

// enterMeasure performs the warm-up → measurement transition: reset every
// stats counter, mark the measurement start cycle, and allocate the
// per-core freeze frames.
func (s *System) enterMeasure() {
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, l1 := range s.l1s {
		l1.ResetStats()
	}
	s.llc.ResetStats()
	s.dram.ResetStats()
	if s.lc != nil {
		s.lc.Reset()
	}
	// The drop counters are measurement-window stats like everything else
	// reset here; without this they silently folded warm-up drops into
	// Results.PrefetchDropped (and broke the lifecycle conservation
	// identity QueueDropped == PrefetchDropped).
	for i := range s.pfDropped {
		s.pfDropped[i] = 0
	}
	s.measureStart = s.clock
	s.snaps = make([]coreSnapshot, len(s.cores))
	s.phase = phaseMeasure
	if s.tel != nil {
		s.tel.Begin(s.clock)
	}
}

// EnableTelemetry attaches an epoch collector. The collector observes
// the same counters collect reads and never feeds back into simulation,
// so enabling it cannot change Results (the telemetry oracle tests pin
// this). Attach before Run or RunWarmup: the collector begins sampling
// at the measurement boundary. Panics if a different collector is
// already attached, or if the run is past warm-up.
func (s *System) EnableTelemetry(c *telemetry.Collector) {
	if c == nil {
		s.tel = nil
		return
	}
	if s.tel != nil && s.tel != c {
		panic("system: telemetry collector already attached")
	}
	if s.phase != phaseWarmup {
		panic("system: EnableTelemetry after warm-up; attach the collector before the run starts")
	}
	if s.lc != nil {
		c.BindLifecycle(s.lc)
	}
	s.tel = c
}

// Telemetry returns the attached collector (nil when telemetry is off).
func (s *System) Telemetry() *telemetry.Collector { return s.tel }

// Lifecycle returns the prefetch lifecycle tracker (nil for the
// no-prefetcher baseline).
func (s *System) Lifecycle() *telemetry.Lifecycle { return s.lc }

// telTotals snapshots the cumulative counters the epoch series is
// differenced over.
func (s *System) telTotals() telemetry.Totals {
	t := telemetry.Totals{
		PerCore: make([]cpu.Stats, len(s.cores)),
		LLC:     s.llc.Stats(),
		DRAM:    s.dram.Stats(),
	}
	for i, c := range s.cores {
		t.PerCore[i] = c.Stats()
	}
	return t
}
