// Package cpu models an out-of-order core with the ROB-occupancy timing
// approximation standard for trace-driven simulation: instructions
// dispatch and retire in order at a fixed width, non-memory instructions
// complete in one cycle, memory instructions complete when the hierarchy
// returns their data, and a full ROB (or LSQ) stalls dispatch. Memory-level
// parallelism therefore emerges naturally — independent misses overlap up
// to the LSQ size — while a long-latency miss at the ROB head stalls
// retirement exactly as in the paper's 4-wide, 256-entry-ROB cores.
//
// Only memory operations can hold up retirement: everything else (and
// every store) completes the cycle after it dispatches, and a tick
// retires before it dispatches. So the ROB keeps memory operations as
// entries and non-memory work as run lengths between them, and the core
// retires and dispatches whole runs at once. Between memory operations
// RunAhead applies stretches of identical ticks in one step (DESIGN.md
// §9); Tick, the lockstep reference, never does.
package cpu

import (
	"fmt"

	"bingo/internal/cache"
	"bingo/internal/mem"
	"bingo/internal/trace"
	"bingo/internal/vm"
)

// Config describes one core.
type Config struct {
	Width   int // dispatch and retire width (instructions/cycle)
	ROBSize int
	LSQSize int // maximum in-flight memory operations
}

// DefaultConfig matches the paper's Table I: 4-wide OoO, 256-entry ROB,
// 64-entry LSQ.
func DefaultConfig() Config {
	return Config{Width: 4, ROBSize: 256, LSQSize: 64}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("cpu: width/rob/lsq must all be positive: %+v", c)
	}
	if c.LSQSize > c.ROBSize {
		return fmt.Errorf("cpu: LSQ (%d) cannot exceed ROB (%d)", c.LSQSize, c.ROBSize)
	}
	return nil
}

// Stats counts retired work and stall attribution for one core.
type Stats struct {
	Instructions uint64 // retired instructions (memory + non-memory)
	MemOps       uint64 // retired memory operations
	Loads        uint64
	Stores       uint64
	// MemStall counts cycles where retirement was blocked by a memory op
	// at the ROB head. The count is exact under both ways of driving a
	// core: Tick observes every cycle directly, and RunAhead accounts for
	// the stall cycles between its own ticks in one addition.
	MemStall uint64
}

// Delta returns the counter-wise difference s - prev; with cumulative
// samples of a core's Stats this yields exact per-interval counts (the
// telemetry epoch series is built this way).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Instructions: s.Instructions - prev.Instructions,
		MemOps:       s.MemOps - prev.MemOps,
		Loads:        s.Loads - prev.Loads,
		Stores:       s.Stores - prev.Stores,
		MemStall:     s.MemStall - prev.MemStall,
	}
}

// robEntry is one in-flight memory operation and the run of non-memory
// instructions dispatched just before it. Non-memory instructions carry
// no completion cycle: they complete the cycle after dispatch, and a
// retire reaches them no earlier than that.
type robEntry struct {
	completeAt uint64 // for a store, the cycle after dispatch
	nonMem     uint32 // non-memory instructions ahead of the operation
}

// Core simulates one hardware context. The system loop drives it with
// RunAhead, which ticks the core at the cycles its NextEventAt names,
// applies runs of identical ticks between memory operations in one step,
// and suspends it before each memory operation so the system can issue
// those in global (cycle, core) order; ticking it on every cycle (the
// lockstep reference) gives identical results.
type Core struct {
	cfg  Config
	id   int
	src  trace.Source
	xlat vm.Mapper
	port cache.Level

	// The ROB: a ring of in-flight memory operations, each with the
	// non-memory run ahead of it, and robTail, the run after the
	// youngest. robCount is the occupancy in instructions.
	rob      []robEntry
	robHead  int // ring index of the oldest memory operation
	robMem   int // memory operations in the ring
	robTail  uint32
	robCount int

	outstanding []uint64 // completion times of in-flight memory ops

	// current record being dispatched
	cur        trace.Record
	curValid   bool
	nonMemLeft uint32
	exhausted  bool

	// lastLoadDone is the completion cycle of the most recent load;
	// Dep-marked accesses cannot issue before it (pointer chasing).
	lastLoadDone uint64

	stats Stats

	// Run-ahead position (see RunAhead): next is the cycle of the core's
	// next tick, idleFrom the first cycle whose MemStall is not yet
	// accounted, and slot the dispatch slot of the tick in progress; mid
	// reports a tick begun at next and suspended before a memory op.
	// Every run entry resets them through Enter.
	next     uint64
	idleFrom uint64
	slot     int
	mid      bool

	tap DemandTap
	san sanState // runtime invariant sanitizer (empty without -tags=san)
}

// DemandTap observes every demand memory operation at dispatch, in
// program order, before address translation. It is the architectural
// access stream of the core — the sequence a prefetcher must never be
// able to change (timing-vs-correctness split, Bingo HPCA 2019 §V) — and
// exists for the differential oracles in the harness. A nil tap (the
// default) costs one predictable branch per memory op.
type DemandTap func(pc mem.PC, va mem.Addr, store, dep bool)

// SetDemandTap installs the dispatch observer (at most one; nil clears).
// Install before the first Tick.
func (c *Core) SetDemandTap(f DemandTap) { c.tap = f }

// New creates a core reading records from src, translating through xlat,
// and issuing memory requests to port (its L1-equivalent entry point).
func New(cfg Config, id int, src trace.Source, xlat vm.Mapper, port cache.Level) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil || xlat == nil || port == nil {
		return nil, fmt.Errorf("cpu: src, xlat, and port must all be non-nil")
	}
	return &Core{
		cfg:  cfg,
		id:   id,
		src:  src,
		xlat: xlat,
		port: port,
		rob:  make([]robEntry, cfg.ROBSize),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, id int, src trace.Source, xlat vm.Mapper, port cache.Level) *Core {
	c, err := New(cfg, id, src, xlat, port)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes the counters; pipeline state is preserved so warm-up
// can flow into measurement seamlessly.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *Core) Done() bool {
	return c.exhausted && !c.curValid && c.robCount == 0
}

// Tick advances the core by one cycle: retire then dispatch, issuing
// every memory operation as it dispatches. It is the lockstep reference
// for RunAhead, built from the same retire, dispatch and issue steps.
func (c *Core) Tick(now uint64) {
	c.sanAtTick(now)
	c.retire(now)
	c.slot = 0
	for c.dispatch(now) {
		c.issue(now)
	}
}

// retire retires up to Width instructions from the ROB head, a
// non-memory run at a time; only a memory operation still in flight
// stops it early.
func (c *Core) retire(now uint64) {
	for budget := uint32(c.cfg.Width); budget > 0 && c.robCount > 0; {
		op := c.headOp()
		if op == nil {
			run := c.headRun()
			k := min(budget, *run)
			*run -= k
			budget -= k
			c.robCount -= int(k)
			c.stats.Instructions += uint64(k)
			continue
		}
		if op.completeAt > now {
			c.stats.MemStall++
			return
		}
		c.sanAtRetire(now, op.completeAt)
		c.stats.Instructions++
		c.stats.MemOps++
		c.robHead++
		if c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robMem--
		c.robCount--
		budget--
	}
}

// headOp returns the memory operation at the ROB head, or nil when the
// head is non-memory work or the ROB is empty.
func (c *Core) headOp() *robEntry {
	if c.robMem == 0 || c.rob[c.robHead].nonMem > 0 {
		return nil
	}
	return &c.rob[c.robHead]
}

// headRun returns the non-memory run at the ROB head: the one ahead of
// the oldest memory operation, or the tail when there is none.
func (c *Core) headRun() *uint32 {
	if c.robMem > 0 {
		return &c.rob[c.robHead].nonMem
	}
	return &c.robTail
}

// dispatch fills the cycle's dispatch slots from c.slot on. It returns
// true when it stops at a memory operation that has passed its
// dependence and LSQ checks, leaving c.slot on it: the caller issues it
// with issue and calls dispatch again for the rest of the cycle. Nothing
// before that point touches state outside the core.
func (c *Core) dispatch(now uint64) bool {
	for c.slot < c.cfg.Width {
		if c.robCount == c.cfg.ROBSize {
			return false
		}
		if !c.curValid {
			if !c.fetch() {
				return false
			}
		}
		if c.nonMemLeft > 0 {
			k := min(c.nonMemLeft, uint32(c.cfg.Width-c.slot), uint32(c.cfg.ROBSize-c.robCount))
			c.nonMemLeft -= k
			c.robTail += k
			c.robCount += int(k)
			c.slot += int(k)
			continue
		}
		// Memory operation of the current record.
		if c.cur.Dep && c.lastLoadDone > now {
			return false // address depends on an in-flight load: stall
		}
		if !c.lsqReserve(now) {
			return false // LSQ full: stall dispatch this cycle
		}
		return true
	}
	return false
}

// issue performs the memory operation dispatch stopped at: translation
// and the hierarchy access, the only steps of a tick that touch shared
// state.
func (c *Core) issue(now uint64) {
	if c.tap != nil {
		c.tap(c.cur.PC, c.cur.Addr, c.cur.Kind == trace.Store, c.cur.Dep)
	}
	pa := c.xlat.Translate(c.cur.Addr)
	kind := cache.Demand
	if c.cur.Kind == trace.Store {
		kind = cache.Write
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	res := c.port.Access(now, cache.Request{Addr: pa, PC: c.cur.PC, Core: c.id, Kind: kind})
	complete := res.CompleteAt
	if kind == cache.Write {
		// Stores retire once issued; the hierarchy absorbs them.
		complete = now + 1
	} else {
		c.lastLoadDone = res.CompleteAt
	}
	c.outstanding = append(c.outstanding, res.CompleteAt) //hot:alloc outstanding grows to LSQSize, then reuses
	tail := c.robHead + c.robMem
	if tail >= c.cfg.ROBSize {
		tail -= c.cfg.ROBSize
	}
	c.rob[tail] = robEntry{completeAt: complete, nonMem: c.robTail}
	c.robTail = 0
	c.robMem++
	c.robCount++
	c.curValid = false
	c.slot++
}

// fetch pulls the next trace record.
func (c *Core) fetch() bool {
	if c.exhausted {
		return false
	}
	rec, ok := c.src.Next()
	if !ok {
		c.exhausted = true
		return false
	}
	c.cur = rec
	c.curValid = true
	c.nonMemLeft = rec.NonMem
	return true
}

// lsqReserve admits a new memory op if fewer than LSQSize are in flight,
// compacting completed entries lazily.
func (c *Core) lsqReserve(now uint64) bool {
	if len(c.outstanding) < c.cfg.LSQSize {
		return true
	}
	live := c.outstanding[:0]
	for _, t := range c.outstanding {
		if t > now {
			live = append(live, t) //hot:alloc append into outstanding[:0] reuses capacity, never grows
		}
	}
	c.outstanding = live
	return len(c.outstanding) < c.cfg.LSQSize
}

// NextEventAt returns the earliest cycle strictly after now at which this
// core can retire or dispatch anything, given its state after Tick(now).
// RunAhead ticks the core only at these cycles, which is sound because
// between two ticks every piece of core state is frozen except time
// itself — completion cycles, the ROB, the LSQ, and the pending record
// only change inside Tick — so the next progress cycle is an exact
// function of the post-tick state, and the value returned here is that
// exact cycle, not a conservative bound:
//
//   - Retirement resumes when the memory operation at the ROB head
//     completes, or next cycle if the head is non-memory work or already
//     complete and only the retire width stopped it.
//   - Dispatch, when the ROB has room, resumes next cycle for non-memory
//     work or a fetchable record; a memory op additionally waits out its
//     address dependence (lastLoadDone) and, when the LSQ is full with no
//     already-completed entry to compact, the earliest in-flight
//     completion.
//
// A full ROB makes retirement the only candidate: dispatch cannot beat
// the retire that frees its slot, and both happen in the same Tick.
func (c *Core) NextEventAt(now uint64) uint64 {
	if c.Done() {
		return ^uint64(0)
	}
	next := ^uint64(0)
	if c.robCount > 0 {
		retireAt := now + 1 // non-memory work, or complete but width-limited
		if op := c.headOp(); op != nil && op.completeAt > retireAt {
			retireAt = op.completeAt
		}
		next = retireAt
		if c.robCount == c.cfg.ROBSize {
			return next
		}
	}
	switch {
	case c.curValid && c.nonMemLeft > 0:
		// Non-memory work always dispatches once width and ROB allow.
		if now+1 < next {
			next = now + 1
		}
	case c.curValid:
		// Pending memory op: wait out the address dependence, then the
		// LSQ. Both constraints must clear simultaneously, so the
		// candidate is their maximum.
		dispatchAt := now + 1
		if c.cur.Dep && c.lastLoadDone > now {
			dispatchAt = c.lastLoadDone
		}
		if len(c.outstanding) >= c.cfg.LSQSize {
			earliest := ^uint64(0)
			hasRoom := false
			for _, t := range c.outstanding {
				if t <= now {
					hasRoom = true // compacts away on the next reserve
					break
				}
				if t < earliest {
					earliest = t
				}
			}
			if !hasRoom && earliest > dispatchAt {
				dispatchAt = earliest
			}
		}
		if dispatchAt < next {
			next = dispatchAt
		}
	case !c.exhausted:
		// Nothing in hand but the trace has more: fetch next cycle.
		if now+1 < next {
			next = now + 1
		}
	}
	return next
}

// Stop says why RunAhead returned.
type Stop uint8

const (
	// AtMemOp: the core is suspended inside its tick at the returned
	// cycle, just before a memory operation issues. Issue performs it;
	// the next RunAhead finishes the tick.
	AtMemOp Stop = iota
	// AtBound: the core's next tick lies at or past the bound, and its
	// MemStall is accounted through bound-1.
	AtBound
	// Reached: the tick at the returned cycle completed with the retired
	// instruction count at or past the target, or drained the core.
	Reached
)

// Enter starts a run of RunAhead calls at cycle now: the core's next
// tick is at now whatever its NextEventAt says (every run entry ticks
// every live core, as the lockstep loop does), and MemStall accounting
// resumes at now. A drained core stays parked.
func (c *Core) Enter(now uint64) {
	c.next, c.idleFrom, c.mid = now, now, false
	if c.Done() {
		c.next = ^uint64(0)
	}
}

// At returns the cycle of the core's next tick, or of the suspended one.
func (c *Core) At() uint64 { return c.next }

// RunAhead ticks the core at its own event cycles below bound, touching
// nothing outside the core, and returns as soon as one of three things
// happens: a memory operation is ready to issue (AtMemOp; the tick is
// suspended just before it), the next tick would be at or past bound
// (AtBound), or a tick leaves the core at target retired instructions or
// drained (Reached). Between ticks it adds the MemStall cycles a
// lockstep Tick would have counted, and it applies each stretch of
// identical ticks in one step, so the statistics match ticking every
// cycle exactly.
func (c *Core) RunAhead(bound, target uint64) (Stop, uint64) {
	for {
		if !c.mid {
			if c.next >= bound {
				c.idleTo(bound)
				return AtBound, bound
			}
			c.idleTo(c.next)
			if c.stretch(bound, target) {
				continue
			}
			c.sanAtTick(c.next)
			c.retire(c.next)
			c.slot, c.mid = 0, true
		}
		now := c.next
		if c.dispatch(now) {
			return AtMemOp, now
		}
		c.mid = false
		c.idleFrom = now + 1
		c.next = c.NextEventAt(now)
		if c.stats.Instructions >= target || c.Done() {
			return Reached, now
		}
	}
}

// stretch applies, in one step, the ticks from c.next on that would
// each do exactly the same thing, and reports whether there were any.
// Two kinds of tick repeat while the current record has non-memory work
// left, each dispatching Width of it:
//
//   - steady: the non-memory run at the ROB head holds Width, so the
//     tick retires Width;
//   - stall-fill: an incomplete memory operation heads the ROB, so the
//     tick retires nothing, counts a MemStall cycle and fills the ROB.
//
// A stretch ends below bound, before the tick that would reach target,
// before the head operation completes, while the ROB has room and while
// the record has Width non-memory instructions left. Each of its ticks
// is followed by the next cycle's, and afterwards the core waits for
// NextEventAt of its last cycle, exactly as after ticking them one by
// one, so every later tick, cut and EarliestReach is unchanged.
func (c *Core) stretch(bound, target uint64) bool {
	w := uint32(c.cfg.Width)
	if !c.curValid || c.nonMemLeft < w || c.stats.Instructions >= target {
		return false
	}
	now := c.next
	k := min(bound-now, uint64(c.nonMemLeft/w))
	op := c.headOp()
	switch {
	case op == nil: // steady
		run := c.headRun()
		if *run < w {
			return false
		}
		if c.robMem > 0 {
			k = min(k, uint64(*run/w))
		} // else the tail run retires as fast as it refills
		k = min(k, (target-c.stats.Instructions-1)/uint64(w))
	case op.completeAt > now: // stall-fill
		k = min(k, op.completeAt-now, uint64(c.cfg.ROBSize-c.robCount)/uint64(w))
	default:
		return false // the head operation retires: this tick differs
	}
	if k == 0 {
		return false
	}
	nonMemLeft := c.nonMemLeft
	n := uint32(k) * w
	c.nonMemLeft -= n
	if op == nil {
		if c.robMem > 0 { // the head run moves to the tail
			c.rob[c.robHead].nonMem -= n
			c.robTail += n
		}
		c.stats.Instructions += uint64(n)
	} else {
		c.robTail += n
		c.robCount += int(n)
		c.stats.MemStall += k
	}
	c.sanAtStretch(now, k, bound, nonMemLeft, op != nil)
	c.idleFrom = now + k
	c.next = c.NextEventAt(now + k - 1)
	return true
}

// Issue performs the memory operation RunAhead suspended at.
func (c *Core) Issue() { c.issue(c.next) }

// idleTo accounts the cycles in [idleFrom, to), on none of which the
// core ticks: a Tick there would only count MemStall, once per cycle a
// memory op blocks the ROB head.
func (c *Core) idleTo(to uint64) {
	if to <= c.idleFrom {
		return
	}
	if op := c.headOp(); op != nil && op.completeAt > c.idleFrom {
		c.stats.MemStall += min(to, op.completeAt) - c.idleFrom
	}
	c.idleFrom = to
}

// EarliestReach returns a lower bound on the cycle of the tick after
// which RunAhead would report Reached for target, for a core that has
// not reached it yet. Retirement is at most Width per tick and ticks
// are at least a cycle apart, so remaining instructions take at least
// ceil(remaining/Width) ticks from the next one. The source may also end
// at the next fetch, draining the core once it has retired everything
// in flight or in hand; that takes ceil(n/Width) ticks for n such
// instructions. The bound does not ask the source whether it can end,
// so it is the same for a source seen through any wrapper.
func (c *Core) EarliestReach(target uint64) uint64 {
	first := c.next // first tick whose retire stage has not run
	if c.mid {
		first++
	}
	if c.stats.Instructions >= target {
		return c.next // reached once the tick in progress completes
	}
	w := uint64(c.cfg.Width)
	ticks := func(n uint64) uint64 { return max((n+w-1)/w, 1) }
	n := uint64(c.robCount)
	if c.curValid {
		n += uint64(c.nonMemLeft) + 1
	}
	at := first + min(ticks(target-c.stats.Instructions), ticks(n)) - 1
	return max(at, c.next)
}
