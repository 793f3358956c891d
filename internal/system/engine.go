package system

import "bingo/internal/cpu"

// Engine selects how the simulation loop advances the machine. Both
// engines simulate the identical machine and are proven byte-identical
// by the engine-differential oracles (internal/harness); they differ
// only in wall-clock cost. Every production run uses the zero value,
// EngineEvent.
type Engine uint8

const (
	// EngineEvent runs each core ahead on its own between memory
	// operations and orders only the operations that reach the shared
	// memory system (run, below). On memory-bound workloads this removes
	// the bulk of the per-cycle work.
	EngineEvent Engine = iota
	// EngineLockstep ticks every core on every cycle — the reference
	// semantics the differential oracles compare the event engine to.
	EngineLockstep
)

// EngineStats counts the event engine's global-loop iterations. It is
// diagnostic output for the bench harness, deliberately kept out of
// Results so both engines produce identical result documents.
type EngineStats struct {
	// Advances is the number of global-loop iterations: memory
	// operations issued plus cuts taken.
	Advances uint64
	// SkippedCycles counts the cycles no iteration landed on, the ones
	// the cores covered on their own. Zero under the lockstep engine.
	SkippedCycles uint64
	// Cuts is the number of cuts among Advances (see run).
	Cuts uint64
}

// SetEngine selects the engine. A freshly built System already runs the
// event engine; SetEngine(EngineLockstep) exists only so the
// engine-differential oracles can run the lockstep reference. Call it
// before Run.
func (s *System) SetEngine(e Engine) { s.engine = e }

// Engine returns the selected engine.
func (s *System) Engine() Engine { return s.engine }

// EngineStats returns the global-loop accounting of the run so far.
func (s *System) EngineStats() EngineStats { return s.engineStats }

// runUntil simulates until every core has retired target instructions
// (or drained), reporting once per core through mark the cycle of the
// tick that got it there, and leaves the clock on the last such cycle.
// Entering the measurement phase after warm-up is exact: every live core
// ticks at the entry cycle, as the lockstep loop does, and a tick a core
// has no work for changes nothing but the MemStall count the
// uninterrupted run would add there anyway.
func (s *System) runUntil(target uint64, mark func(core int, cycle uint64)) {
	if s.engine == EngineLockstep {
		s.runLockstep(target, mark)
		return
	}
	s.run(target, mark)
}

// runLockstep is the reference loop: every live core ticks on every
// cycle, in core order.
func (s *System) runLockstep(target uint64, mark func(core int, cycle uint64)) {
	reached := make([]bool, len(s.cores))
	for first := true; ; first = false {
		all := true
		for i, c := range s.cores {
			ticked := first
			if !c.Done() {
				c.Tick(s.clock)
				ticked = true
			}
			if !reached[i] {
				if ticked && (c.Stats().Instructions >= target || c.Done()) {
					reached[i] = true
					mark(i, s.clock)
				} else {
					all = false
				}
			}
		}
		if all {
			return
		}
		s.cut(s.clock + 1)
	}
}

// run is the event engine. Between two memory operations a core touches
// only its own state, so each core runs ahead by itself (cpu.RunAhead)
// and stops just before its next memory operation; the loop issues the
// suspended operations in (cycle, core) order, which is exactly the
// order the lockstep loop issues them in. Cores run ahead only up to a
// bound, the nearest cut: the next telemetry epoch edge or the earliest
// cycle the phase can end. No core ticks at or past a cut until every
// core has finished every cycle below it, so the machine is whole there,
// as a lockstep run is between two cycles. DESIGN.md §9 gives the
// argument.
func (s *System) run(target uint64, mark func(core int, cycle uint64)) {
	// reachAt[i] is the cycle core i reached target, and pending[i] the
	// cycle of the memory operation it is suspended at; ^0 for neither.
	reachAt, pending := s.reachAt, s.pending
	left := len(s.cores)
	for i, c := range s.cores {
		reachAt[i], pending[i] = ^uint64(0), ^uint64(0)
		if c.Done() {
			reachAt[i] = s.clock
			left--
			mark(i, s.clock)
		}
		c.Enter(s.clock)
	}
	landed := s.clock
	land := func(cycle uint64) {
		s.engineStats.Advances++
		if cycle > landed {
			s.engineStats.SkippedCycles += cycle - landed - 1
			landed = cycle
		}
	}
	// step runs core i ahead to bound, recording where it stopped.
	step := func(i int, bound uint64) {
		c := s.cores[i]
		for {
			tgt := target
			if reachAt[i] != ^uint64(0) {
				tgt = ^uint64(0)
			}
			stop, at := c.RunAhead(bound, tgt)
			switch stop {
			case cpu.AtMemOp:
				pending[i] = at
				return
			case cpu.AtBound:
				return
			}
			if reachAt[i] == ^uint64(0) {
				reachAt[i] = at
				left--
				mark(i, at)
			}
		}
	}
	s.sanAtRunEntry()
	for {
		// The phase ends on the cycle its last core reaches target.
		// EarliestReach bounds that cycle from below for the cores still
		// short of it, so no core bounded by end+1 ticks past the end.
		end := uint64(0)
		for i, c := range s.cores {
			at := reachAt[i]
			if at == ^uint64(0) {
				at = c.EarliestReach(target)
			}
			end = max(end, at)
		}
		bound := end + 1
		if left > 0 {
			bound = min(bound, s.nextCut())
		}
		// A core already parked past bound only accounts its MemStall up
		// to it: a cut observes every core's counters.
		for i, at := range pending {
			if at == ^uint64(0) {
				step(i, bound)
			}
		}
		for {
			next, at := -1, ^uint64(0)
			for i, p := range pending {
				if p < at { // strict: the lower core wins a tie
					next, at = i, p
				}
			}
			if next < 0 {
				break
			}
			s.sanAtIssue(next, at, bound)
			land(at)
			s.cores[next].Issue()
			pending[next] = ^uint64(0)
			step(next, bound)
		}
		// Every core has finished every cycle below bound.
		s.engineStats.Cuts++
		land(bound)
		if left == 0 {
			last := uint64(0)
			for _, at := range reachAt {
				last = max(last, at)
			}
			s.sanAtPhaseEnd(last, bound)
			s.clock = last
			return
		}
		s.sanAtCut(bound)
		s.cut(bound)
	}
}

// nextCut returns the nearest cycle after the clock at which the loop
// must stop the cores: the next telemetry epoch edge.
func (s *System) nextCut() uint64 {
	if s.tel != nil && s.phase == phaseMeasure {
		return s.tel.NextSampleAt()
	}
	return ^uint64(0)
}

// cut moves the clock to cycle, which no core has ticked at yet, and
// takes the telemetry sample when an epoch edge is due there. At a cut
// that only bounds the phase's end nothing is due.
func (s *System) cut(cycle uint64) {
	prev := s.clock
	s.clock = cycle
	s.sanAtAdvance(prev, cycle)
	if s.tel != nil && s.phase == phaseMeasure && s.tel.ShouldSample(cycle) {
		s.tel.Sample(cycle, s.telTotals())
	}
}
