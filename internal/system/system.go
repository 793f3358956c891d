package system

import (
	"fmt"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/sched"
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
// (caches, DRAM banks, translator RNG, prefetcher metadata, the
// replacement policy's RNG in internal/cache) hangs off the System built
// by New; neither this package nor its dependencies keep package-level
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
	// Run) is what makes a run pausable at any clock advance and
	// checkpointable mid-stream: phase records which budget the loop is
	// working toward, measureStart the cycle measurement began, and snaps
	// the per-core freeze frames taken as each core reaches its budget.
	phase        uint8
	measureStart uint64
	snaps        []coreSnapshot

	// hook, when set, observes every clock advance; returning true pauses
	// RunResumable at a checkpoint-safe boundary (no core has ticked at
	// the new cycle yet). Under the event engine advances jump, so a
	// hook watching for a threshold must compare with >=, not ==.
	hook func(cycle uint64) bool

	// engine selects the clock-advance strategy (see engine.go); queue
	// is the event engine's wakeup scheduler, built lazily at run entry,
	// and engineStats counts its advances and skipped cycles. coreNext
	// caches each core's exact next-event cycle: a core's deadline can
	// only change when that core ticks, so the loop refreshes the entry
	// at tick time and advanceClock just takes the min — the event
	// engine's poll-on-state-change discipline.
	engine      Engine
	queue       *sched.Queue
	engineStats EngineStats
	coreNext    []uint64

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
			if s.sharedPFIndex(i) < 0 {
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
		l1cfg.Name = fmt.Sprintf("L1[%d]", i)
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

// l1Port wraps a core's private L1 with its prefetcher (AttachL1 mode).
type l1Port struct {
	sys  *System
	core int
	l1   *cache.Cache
}

// Access implements cache.Level.
func (p l1Port) Access(now uint64, req cache.Request) cache.Result {
	s := p.sys
	hit := p.l1.Contains(req.Addr)
	res := p.l1.Access(now, req)
	pf := s.pfs[p.core]
	addrs := pf.OnAccess(prefetch.AccessEvent{
		Addr:  req.Addr,
		PC:    req.PC,
		Core:  req.Core,
		Write: req.Kind == cache.Write,
		Hit:   hit,
	})
	s.lc.Predicted(p.core, len(addrs))
	for i, a := range addrs {
		if !s.pfReserve(p.core, now) {
			s.pfDropped[p.core] += uint64(len(addrs) - i)
			s.lc.QueueDropped(p.core, len(addrs)-i)
			break
		}
		pres := p.l1.Access(now, cache.Request{Addr: a, PC: req.PC, Core: req.Core, Kind: cache.Prefetch})
		s.pfInflight[p.core] = append(s.pfInflight[p.core], pres.CompleteAt)
	}
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
	hit := s.llc.Contains(req.Addr)
	res := s.llc.Access(now, req)
	if s.pfs == nil || req.Kind == cache.Prefetch || s.cfg.PrefetchAt != AttachLLC {
		return res
	}
	pf := s.pfs[req.Core]
	addrs := pf.OnAccess(prefetch.AccessEvent{
		Addr:  req.Addr,
		PC:    req.PC,
		Core:  req.Core,
		Write: req.Kind == cache.Write,
		Hit:   hit,
	})
	s.lc.Predicted(req.Core, len(addrs))
	for i, a := range addrs {
		if !s.pfReserve(req.Core, now) {
			s.pfDropped[req.Core] += uint64(len(addrs) - i)
			s.lc.QueueDropped(req.Core, len(addrs)-i)
			break
		}
		pres := s.llc.Access(now, cache.Request{Addr: a, PC: req.PC, Core: req.Core, Kind: cache.Prefetch})
		s.pfInflight[req.Core] = append(s.pfInflight[req.Core], pres.CompleteAt)
	}
	return res
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

// SetAdvanceHook installs f, called after every clock advance with the
// new cycle value. Returning true pauses RunResumable at that boundary —
// no core has ticked at the new cycle yet, which is the invariant that
// makes a checkpoint taken here resume exactly. The hook must not mutate
// simulation state (taking a checkpoint is read-only). Nil clears it.
func (s *System) SetAdvanceHook(f func(cycle uint64) bool) { s.hook = f }

// Run executes warm-up then measurement and returns the results. It may
// be called once per System (or once on a system restored from a
// checkpoint, which picks up in whatever phase the snapshot captured).
// It panics if an advance hook pauses the run; use RunResumable for
// pausable runs.
//
// Measurement follows the usual multi-programmed methodology: every core
// keeps executing (so shared-resource contention stays realistic) until
// all cores have retired their budget, but each core's instruction count
// and cycle interval are snapshotted the moment it reaches its own budget.
func (s *System) Run() Results {
	res, paused := s.RunResumable()
	if paused {
		panic("system: run paused by advance hook; use RunResumable")
	}
	return res
}

// RunWarmup advances through the warm-up phase only, leaving the system
// at the measurement boundary (stats reset, measurement clock marked).
// A checkpoint taken here is a warm-start artifact: restoring it and
// calling Run executes just the measurement phase.
func (s *System) RunWarmup() {
	if s.phase != phaseWarmup {
		panic("system: RunWarmup after warm-up already completed")
	}
	s.ensureScheduler()
	if s.cfg.WarmupInstr > 0 {
		if paused := s.runUntil(func(i int) bool {
			return s.cores[i].Stats().Instructions >= s.cfg.WarmupInstr
		}); paused {
			panic("system: warm-up paused by advance hook")
		}
	}
	s.enterMeasure()
}

// RunResumable is Run for pausable simulations: when the advance hook
// requests a pause it returns (zero Results, true), and the system can be
// checkpointed and later resumed — calling RunResumable (or Run) again,
// on this system or a restored copy, continues the identical simulation.
func (s *System) RunResumable() (Results, bool) {
	s.ensureScheduler()
	if s.phase == phaseWarmup {
		if s.cfg.WarmupInstr > 0 {
			if paused := s.runUntil(func(i int) bool {
				return s.cores[i].Stats().Instructions >= s.cfg.WarmupInstr
			}); paused {
				return Results{}, true
			}
		}
		s.enterMeasure()
	}
	if s.phase == phaseMeasure {
		paused := s.runUntilMark(func(i int) bool {
			return s.cores[i].Stats().Instructions >= s.cfg.MeasureInstr
		}, func(i int, cycle uint64) {
			if !s.snaps[i].taken {
				s.snaps[i] = coreSnapshot{taken: true, cycle: cycle, stats: s.cores[i].Stats(), l1: s.l1s[i].Stats()}
			}
		})
		if paused {
			return Results{}, true
		}
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
	return s.collect(s.measureStart, s.snaps), false
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

// runUntil advances the clock until pred holds for every core or all
// cores drain, reporting whether the advance hook paused it first.
func (s *System) runUntil(pred func(core int) bool) bool {
	return s.runUntilMark(pred, func(int, uint64) {})
}

// runUntilMark additionally reports, once per core, the first cycle at
// which pred became true for it. Re-entry after a pause is exact: pred is
// monotone (retired instructions only grow, Done is sticky), so the
// per-core reached flags recompute to the same values they held when the
// pause hit, and mark-once idempotence is the caller's taken guard.
func (s *System) runUntilMark(pred func(core int) bool, mark func(core int, cycle uint64)) bool {
	reached := make([]bool, len(s.cores))
	event := s.engine == EngineEvent
	if event {
		// Every core is due at loop entry, mirroring the lockstep loop's
		// unconditional tick on the first iteration (phase transitions and
		// resumes re-enter here at the current clock).
		for i := range s.coreNext {
			s.coreNext[i] = s.clock
		}
	}
	first := true
	for {
		allReached := true
		allDone := true
		for i, c := range s.cores {
			ticked := first
			if !c.Done() {
				allDone = false
				if event && s.coreNext[i] > s.clock {
					// The core's next event is still ahead: a full Tick
					// would be a no-op apart from the retire stage's
					// memory-stall count, so apply just that.
					c.IdleAt(s.clock)
				} else {
					c.Tick(s.clock)
					ticked = true
					if event {
						at := c.NextEventAt(s.clock)
						if at <= s.clock {
							panic(fmt.Sprintf("system: core %d scheduled a wakeup at cycle %d, at or before the current cycle %d", i, at, s.clock))
						}
						s.coreNext[i] = at
					}
				}
			}
			if !reached[i] {
				// pred depends only on state a Tick mutates (retired
				// instructions, Done) — never on IdleAt's stall count — so
				// between ticks its value is frozen and needs no re-check.
				if ticked && (pred(i) || c.Done()) {
					reached[i] = true
					mark(i, s.clock)
				} else {
					allReached = false
				}
			}
		}
		first = false
		if allReached || allDone {
			return false
		}
		prev := s.clock
		s.clock = s.advanceClock(prev)
		s.sanAtAdvance(prev, s.clock)
		if s.tel != nil && s.phase == phaseMeasure && s.tel.ShouldSample(s.clock) {
			s.tel.Sample(s.clock, s.telTotals())
		}
		if s.hook != nil && s.hook(s.clock) {
			return true
		}
	}
}

// EnableTelemetry attaches an epoch collector. The collector observes
// the same counters collect reads and never feeds back into simulation,
// so enabling it cannot change Results (the telemetry oracle tests pin
// this). Attach before Run for a full series; attaching after a restore
// that landed mid-measurement resynchronises the epoch grid to the
// measurement start, so a warm-started run reports the same series as a
// cold one. Panics if a different collector is already attached.
func (s *System) EnableTelemetry(c *telemetry.Collector) {
	if c == nil {
		s.tel = nil
		return
	}
	if s.tel != nil && s.tel != c {
		panic("system: telemetry collector already attached")
	}
	c.BindCores(len(s.cores))
	if s.lc != nil {
		c.BindLifecycle(s.lc)
	}
	s.tel = c
	if s.phase >= phaseMeasure {
		c.Resync(s.measureStart, s.clock)
	}
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
