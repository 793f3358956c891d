//go:build san

package cpu

import "bingo/internal/san"

// sanState is the per-core checker state of the runtime invariant
// sanitizer (build tag `san`).
type sanState struct {
	lastTick uint64 // most recent Tick cycle (SAN-CPU-TICK)
}

// sanAtTick verifies lockstep monotonicity and structural occupancy
// bounds at the top of every core tick.
func (c *Core) sanAtTick(now uint64) {
	if !san.Enabled() {
		return
	}
	if now < c.san.lastTick {
		san.Failf(c.sanName(), now, san.CPUTick,
			"tick at cycle %d after tick at cycle %d", now, c.san.lastTick)
	}
	c.san.lastTick = now
	if c.robCount < c.robMem || c.robCount > c.cfg.ROBSize {
		san.Failf(c.sanName(), now, san.CPUTick,
			"ROB occupancy %d outside [%d,%d] (memory operations in it, ROBSize)", c.robCount, c.robMem, c.cfg.ROBSize)
	}
	if len(c.outstanding) > c.cfg.LSQSize {
		san.Failf(c.sanName(), now, san.CPUTick,
			"LSQ tracks %d in-flight memory ops, capacity %d", len(c.outstanding), c.cfg.LSQSize)
	}
	// Event conservation: MemOps counts retirements, Loads/Stores count
	// dispatches, and at most ROBSize dispatches can be in flight. The
	// slack also absorbs the warm-up ResetStats, which zeroes the dispatch
	// counters while up to a ROB's worth of pre-reset entries still retire.
	if s := c.stats; s.MemOps > s.Loads+s.Stores+uint64(c.cfg.ROBSize) {
		san.Failf(c.sanName(), now, san.CPURetire,
			"retired %d memory ops with only %d dispatched (+%d ROB slack)",
			s.MemOps, s.Loads+s.Stores, c.cfg.ROBSize)
	}
}

// sanAtRetire verifies a memory operation only leaves the ROB once its
// completion cycle has passed (in-order retirement honors timing).
// Non-memory runs carry no completion cycle: they are complete by
// construction, dispatched at least a cycle before any retire reaches
// them.
func (c *Core) sanAtRetire(now, completeAt uint64) {
	if !san.Enabled() {
		return
	}
	if completeAt > now {
		san.Failf(c.sanName(), now, san.CPURetire,
			"retiring memory operation that completes at cycle %d > now %d", completeAt, now)
	}
}

// sanAtStretch verifies, after RunAhead applied k identical ticks from
// cycle now, that the stretch was entitled to them: it stays below
// bound, the record held k·Width non-memory instructions, a stall-fill's
// head operation is still incomplete on its last cycle, and the ROB did
// not overflow. nonMemLeft is the record's count before the stretch.
func (c *Core) sanAtStretch(now, k, bound uint64, nonMemLeft uint32, stall bool) {
	if !san.Enabled() {
		return
	}
	if now < c.san.lastTick {
		san.Failf(c.sanName(), now, san.CPUTick,
			"stretch from cycle %d after tick at cycle %d", now, c.san.lastTick)
	}
	if k < 1 || now+k > bound {
		san.Failf(c.sanName(), now, san.CPUStretch,
			"stretch of %d ticks from cycle %d crosses bound %d", k, now, bound)
	}
	if uint64(nonMemLeft) < k*uint64(c.cfg.Width) {
		san.Failf(c.sanName(), now, san.CPUStretch,
			"stretch of %d ticks at width %d with %d non-memory instructions left", k, c.cfg.Width, nonMemLeft)
	}
	if stall {
		if op := c.headOp(); op == nil || op.completeAt <= now+k-1 {
			san.Failf(c.sanName(), now, san.CPUStretch,
				"stall-fill of %d ticks from cycle %d past its head operation's completion", k, now)
		}
	}
	if c.robCount > c.cfg.ROBSize {
		san.Failf(c.sanName(), now, san.CPUStretch,
			"stretch left ROB occupancy %d above %d", c.robCount, c.cfg.ROBSize)
	}
	c.san.lastTick = now + k - 1
}

// sanName labels violations with the core index. It allocates, but is
// called only on the failure path.
func (c *Core) sanName() string {
	const digits = "0123456789"
	if c.id >= 0 && c.id < 10 {
		return "cpu[" + digits[c.id:c.id+1] + "]"
	}
	return "cpu"
}
