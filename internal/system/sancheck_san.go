//go:build san

package system

import "bingo/internal/san"

// sanState is the per-system checker state of the runtime invariant
// sanitizer (build tag `san`): the last memory operation the event
// engine issued, for the ordering audit.
type sanState struct {
	lastCycle uint64
	lastCore  int
}

// sanAtAdvance verifies the simulation clock is strictly monotone and the
// per-core prefetch queues respect their configured bound. Called on
// every clock move of the simulation loop: each lockstep cycle, each
// event-engine cut.
func (s *System) sanAtAdvance(prev, next uint64) {
	if !san.Enabled() {
		return
	}
	if next <= prev {
		san.Failf("system", next, san.SysClock,
			"clock advanced from %d to %d (must be strictly increasing)", prev, next)
	}
	for i := range s.pfInflight {
		if len(s.pfInflight[i]) > s.cfg.PrefetchQueue {
			san.Failf("system", next, san.SysEvents,
				"core %d prefetch queue holds %d in-flight entries, capacity %d",
				i, len(s.pfInflight[i]), s.cfg.PrefetchQueue)
		}
	}
}

// sanAtRunEntry starts the ordering audit of one event-engine run: the
// run's first tick is at the clock, by every core.
func (s *System) sanAtRunEntry() {
	s.san.lastCycle, s.san.lastCore = s.clock, 0
}

// sanAtIssue is the ordering audit (DESIGN.md §6b): the event engine
// issues memory operations in non-decreasing (cycle, core) order — the
// lockstep loop's order — and only below the current cut.
func (s *System) sanAtIssue(core int, cycle, bound uint64) {
	if !san.Enabled() {
		return
	}
	if cycle >= bound {
		san.Failf("system", cycle, san.SysOrder,
			"core %d issues a memory operation at cycle %d, at or past the cut at %d", core, cycle, bound)
	}
	if cycle < s.san.lastCycle || cycle == s.san.lastCycle && core < s.san.lastCore {
		san.Failf("system", cycle, san.SysOrder,
			"core %d issues at cycle %d after core %d issued at cycle %d",
			core, cycle, s.san.lastCore, s.san.lastCycle)
	}
	s.san.lastCycle, s.san.lastCore = cycle, core
}

// sanAtCut verifies that at a cut every core's next tick lies at or past
// it: the machine the telemetry sample observes has
// simulated every cycle below the cut and none from it on.
func (s *System) sanAtCut(bound uint64) {
	if !san.Enabled() {
		return
	}
	for i, c := range s.cores {
		if c.At() < bound {
			san.Failf("system", bound, san.SysOrder,
				"core %d still has a tick at cycle %d below the cut at %d", i, c.At(), bound)
		}
	}
}

// sanAtPhaseEnd verifies the bound a phase ended on was the one cycle
// past its last core's reach: a higher bound would have let cores tick
// past the end of the phase.
func (s *System) sanAtPhaseEnd(last, bound uint64) {
	if !san.Enabled() {
		return
	}
	if last+1 != bound {
		san.Failf("system", bound, san.SysOrder,
			"phase ended at cycle %d but cores ran to the bound at %d", last, bound)
	}
}

// sanAtRunEnd closes the end-to-end event-conservation equations once the
// simulation loop has drained: every demand access a core dispatched is an
// L1 access, and every L1 demand miss is exactly one LLC demand access
// (the hierarchy is synchronous — there is no queue to lose requests in).
func (s *System) sanAtRunEnd() {
	if !san.Enabled() {
		return
	}
	now := s.clock
	var l1Misses uint64
	for i, l1 := range s.l1s {
		st := l1.Stats()
		l1Misses += st.Misses
		cs := s.cores[i].Stats()
		if st.Accesses != cs.Loads+cs.Stores {
			san.Failf("system", now, san.SysEvents,
				"core %d dispatched %d demand ops (loads %d + stores %d) but its L1 saw %d accesses",
				i, cs.Loads+cs.Stores, cs.Loads, cs.Stores, st.Accesses)
		}
	}
	if llc := s.llc.Stats(); llc.Accesses != l1Misses {
		san.Failf("system", now, san.SysEvents,
			"LLC saw %d demand accesses but the L1s missed %d times", llc.Accesses, l1Misses)
	}
}
