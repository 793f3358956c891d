package system

import (
	"fmt"

	"bingo/internal/sched"
)

// Engine selects the simulation loop's clock-advance strategy. Both
// engines simulate the identical machine and are proven byte-identical
// by the engine-differential oracles (internal/harness); they differ
// only in wall-clock cost. Every production run uses the zero value,
// EngineEvent.
type Engine uint8

const (
	// EngineEvent jumps the clock straight to the earliest wakeup
	// registered with the scheduler (internal/sched), skipping stretches
	// where every component is provably idle. On memory-bound workloads
	// this removes the bulk of the per-cycle probing.
	EngineEvent Engine = iota
	// EngineLockstep ticks every core on every cycle — the reference
	// semantics the differential oracles compare the event engine to.
	EngineLockstep
)

// EngineStats counts the event engine's clock advances. It is
// diagnostic output for the bench harness, deliberately kept out of
// Results so both engines produce identical result documents.
type EngineStats struct {
	// Advances is the number of clock advances the loop took.
	Advances uint64
	// SkippedCycles is the total cycles jumped over (advances of more
	// than +1 contribute their gap). Zero under the lockstep engine.
	SkippedCycles uint64
}

// SetEngine selects the clock-advance strategy. A freshly built System
// already runs the event engine; SetEngine(EngineLockstep) exists only
// so the engine-differential oracles and the BENCH_eventloop emitter can
// run the lockstep reference. Call it before Run (or between a
// checkpoint restore and the resuming Run — the engine is not part of a
// checkpoint, and either engine resumes any checkpoint to the same
// results). The scheduler itself binds lazily at run entry, so a
// restore's state is what seeds the in-flight heaps.
func (s *System) SetEngine(e Engine) { s.engine = e }

// Engine returns the selected clock-advance strategy.
func (s *System) Engine() Engine { return s.engine }

// EngineStats returns the clock-advance accounting of the run so far.
func (s *System) EngineStats() EngineStats { return s.engineStats }

// pfQueueWaker exposes the per-core prefetch queues as a Waker: an
// in-flight prefetch completing frees an issue slot, which is the only
// time-driven transition the queues have.
type pfQueueWaker struct {
	s *System
}

// NextEventAt implements sched.Waker.
func (p pfQueueWaker) NextEventAt(now uint64) uint64 {
	next := ^uint64(0)
	for _, q := range p.s.pfInflight {
		for _, t := range q {
			if t > now && t < next {
				next = t
			}
		}
	}
	return next
}

// ensureScheduler builds and populates the wakeup queue on first use of
// the event engine. It runs at run entry rather than construction so a
// checkpoint restore (which rewrites clock, cache contents, and queue
// state into a freshly built system) is already in place when the cache
// in-flight heaps are seeded.
func (s *System) ensureScheduler() {
	if s.engine != EngineEvent || s.queue != nil {
		return
	}
	q := sched.New()
	s.coreNext = make([]uint64, len(s.cores))
	for i, c := range s.cores {
		q.Register(fmt.Sprintf("core[%d]", i), c)
	}
	// The memory system is passive: caches, DRAM, and the prefetch queues
	// mutate state only inside the Access calls core ticks make, and the
	// completion times that gate core progress are baked into core state
	// at dispatch. Their wakers are registered lazy — real deadlines, but
	// only the conservative (sanitized) skip policy lands on them.
	q.RegisterLazy("dram", s.dram)
	// Cache in-flight heaps feed only the conservative paths (NextWakeLazy
	// clamps and the skip audit), so the per-fill heap bookkeeping is paid
	// only when those paths can run. Without tracking the cache wakers
	// report no pending events, which for a lazy waker is always sound.
	track := s.sanConservativeSkips()
	if track {
		s.llc.EnableEventTracking(s.clock)
	}
	q.RegisterLazy("llc", s.llc)
	for i, l1 := range s.l1s {
		if track {
			l1.EnableEventTracking(s.clock)
		}
		q.RegisterLazy(fmt.Sprintf("l1[%d]", i), l1)
	}
	if s.pfInflight != nil {
		q.RegisterLazy("prefetch-queue", pfQueueWaker{s: s})
	}
	s.queue = q
}

// advanceClock picks the cycle the loop simulates next. The lockstep
// engine ticks every cycle; the event engine jumps to the earliest
// registered wakeup, clamped to the next telemetry epoch edge so the
// epoch series closes at exactly the boundaries a lockstep run closes
// at. Cores are caught up over the skipped gap (MemStall is the one
// counter the lockstep loop accrues on otherwise idle cycles), which is
// what makes the two engines' statistics — not just their progress —
// identical.
//
// Skip-safety argument, in brief: between ticks, every component's
// state is frozen except time itself (cores mutate only in Tick; caches,
// DRAM, translation, and prefetchers mutate only inside the Access calls
// ticks make). The cores' wakeups are exact next-progress cycles
// (cpu.NextEventAt), so no retire or dispatch can occur strictly inside
// the gap; the passive components' timer expiries need no landing at all
// — an expiry changes nothing until the next access observes it against
// the clock. Sanitizer-enabled runs nevertheless clamp to the passive
// wakers too (NextWakeLazy), so the skip audit in sanAtAdvance is a
// strict invariant and the san/non-san differential oracle doubles as a
// proof that the two skip policies agree. DESIGN.md §9 spells the
// argument out.
func (s *System) advanceClock(prev uint64) uint64 {
	if s.engine != EngineEvent {
		return prev + 1
	}
	// The loop refreshed coreNext for every core that ticked at prev;
	// the rest are frozen, so their cached deadlines are still exact.
	next := sched.None
	for _, at := range s.coreNext {
		if at < next {
			next = at
		}
	}
	if s.sanConservativeSkips() && next > prev+1 {
		if lz := s.queue.NextWakeLazy(prev); lz < next {
			next = lz
		}
	}
	if next == sched.None {
		next = prev + 1
	}
	if s.tel != nil && s.phase == phaseMeasure {
		if edge := s.tel.NextSampleAt(); edge > prev && edge < next {
			next = edge
		}
	}
	s.engineStats.Advances++
	if next > prev+1 {
		s.engineStats.SkippedCycles += next - prev - 1
		for _, c := range s.cores {
			c.CatchUp(prev, next)
		}
	}
	return next
}
