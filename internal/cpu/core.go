// Package cpu models an out-of-order core with the ROB-occupancy timing
// approximation standard for trace-driven simulation: instructions
// dispatch and retire in order at a fixed width, non-memory instructions
// complete in one cycle, memory instructions complete when the hierarchy
// returns their data, and a full ROB (or LSQ) stalls dispatch. Memory-level
// parallelism therefore emerges naturally — independent misses overlap up
// to the LSQ size — while a long-latency miss at the ROB head stalls
// retirement exactly as in the paper's 4-wide, 256-entry-ROB cores.
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
	// at the ROB head. The count is exact under both simulation engines:
	// the lockstep loop observes every cycle directly, and the
	// event-driven loop accounts for each skipped stall stretch through
	// CatchUp before the clock lands past it.
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

// robEntry is one in-flight instruction.
type robEntry struct {
	completeAt uint64
	isMem      bool
}

// Core simulates one hardware context. Drive it with Tick from a lockstep
// system loop.
type Core struct {
	//ckpt:skip construction parameter, re-supplied by New; LoadState validates the ROB size
	cfg Config
	//ckpt:skip identity, re-supplied by New before restore
	id int
	//ckpt:skip rebuilt fresh and fast-forwarded past the persisted cursor by LoadState
	src trace.Source
	//ckpt:skip wiring, re-established by system.New before restore
	xlat vm.Mapper
	//ckpt:skip wiring, re-established by system.New before restore
	port cache.Level

	rob      []robEntry // ring buffer
	robHead  int
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

	// fetched counts records successfully pulled from src. Trace sources
	// are deterministic from their construction, so a checkpoint stores
	// only this cursor and restore fast-forwards a fresh source past the
	// consumed prefix (see LoadState in checkpoint.go).
	fetched uint64

	stats Stats
	//ckpt:skip wiring, re-established by the harness before restore
	tap DemandTap
	//ckpt:skip checker scratch state, not simulation state; rebuilt as events replay
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

// Tick advances the core by one cycle: retire then dispatch.
func (c *Core) Tick(now uint64) {
	c.sanAtTick(now)
	c.retire(now)
	c.dispatch(now)
}

func (c *Core) retire(now uint64) {
	for retired := 0; retired < c.cfg.Width && c.robCount > 0; retired++ {
		head := &c.rob[c.robHead]
		if head.completeAt > now {
			if head.isMem {
				c.stats.MemStall++
			}
			return
		}
		c.sanAtRetire(now, head.completeAt)
		c.stats.Instructions++
		if head.isMem {
			c.stats.MemOps++
		}
		c.robHead++
		if c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robCount--
	}
}

func (c *Core) dispatch(now uint64) {
	for n := 0; n < c.cfg.Width; n++ {
		if c.robCount == c.cfg.ROBSize {
			return
		}
		if !c.curValid {
			if !c.fetch() {
				return
			}
		}
		if c.nonMemLeft > 0 {
			c.nonMemLeft--
			c.push(robEntry{completeAt: now + 1})
			continue
		}
		// Memory operation of the current record.
		if c.cur.Dep && c.lastLoadDone > now {
			return // address depends on an in-flight load: stall
		}
		if !c.lsqReserve(now) {
			return // LSQ full: stall dispatch this cycle
		}
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
		c.push(robEntry{completeAt: complete, isMem: true})
		c.curValid = false
	}
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
	c.fetched++
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

func (c *Core) push(e robEntry) {
	tail := c.robHead + c.robCount
	if tail >= c.cfg.ROBSize {
		tail -= c.cfg.ROBSize
	}
	c.rob[tail] = e
	c.robCount++
}

// NextEventAt returns the earliest cycle strictly after now at which this
// core can retire or dispatch anything, given its state after Tick(now).
// It implements the event engine's Waker contract (see internal/sched):
// between two ticks every piece of core state is frozen except time
// itself — completion cycles, the ROB, the LSQ, and the pending record
// only change inside Tick — so the next progress cycle is an exact
// function of the post-tick state, and the value returned here is that
// exact cycle, not a conservative bound:
//
//   - Retirement resumes when the ROB head completes (or next cycle, if
//     the head is already complete and only the retire width stopped it).
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
		retireAt := c.rob[c.robHead].completeAt
		if retireAt <= now {
			retireAt = now + 1 // complete but width-limited this cycle
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

// CatchUp accounts for the cycles in the open interval (from, to) that
// the event engine is about to skip. A skip is only legal when the core
// can neither retire nor dispatch anywhere inside the gap, so each
// skipped cycle's Tick would have been a no-op — except for MemStall,
// which the lockstep loop increments once per cycle a memory op blocks
// the ROB head. Adding exactly that count here is what keeps the two
// engines' statistics identical (the endpoints are excluded: the core
// was ticked at from and will be ticked at to).
func (c *Core) CatchUp(from, to uint64) {
	if to <= from+1 || c.robCount == 0 {
		return
	}
	head := c.rob[c.robHead]
	if !head.isMem || head.completeAt <= from {
		// A complete (or non-memory) head cannot have stalled the gap:
		// it would have retired, making the gap illegal. Defensive only.
		return
	}
	end := to
	if head.completeAt < end {
		end = head.completeAt
	}
	if end > from+1 {
		c.stats.MemStall += end - from - 1
	}
}

// IdleAt applies the one side effect a Tick has on a core with no
// progress available at cycle now: the retire stage's MemStall count
// when a memory op blocks the ROB head. The event engine calls it in
// place of a full Tick for cores whose next event lies beyond a landed
// cycle — same statistics, none of the retire/dispatch probing
// (TestEventSteppedCoreMatchesLockstep pins the equivalence). Calling it
// on a core that could make progress at now would lose that progress;
// the caller guarantees NextEventAt(prev) > now.
func (c *Core) IdleAt(now uint64) {
	if c.robCount > 0 {
		if head := &c.rob[c.robHead]; head.isMem && head.completeAt > now {
			c.stats.MemStall++
		}
	}
}
