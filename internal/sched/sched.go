// Package sched provides the wakeup scheduler of the event-driven
// simulation engine: a queue of Wakers, each reporting the next cycle at
// which its component's state machine has a pending transition. The
// system loop asks the queue for the earliest registered wakeup and
// jumps the clock straight to it instead of probing every component
// cycle by cycle.
//
// Wakers register in one of two classes, matching the two kinds of
// component in the simulator:
//
//   - Hard wakers (Register) are the active agents — the cores. Their
//     events *require* the clock to land: a retire or dispatch that the
//     loop jumped over would simulate a different machine. Every skip is
//     clamped to the earliest hard wakeup.
//
//   - Lazy wakers (RegisterLazy) are the passive components — caches,
//     DRAM, the prefetch queues. Their state mutates only inside the
//     Access calls that core ticks make; a bank timer or fill that
//     expires mid-gap changes nothing until the next access *observes*
//     it by comparing against the clock, and the completion times that
//     gate core progress are already baked into core state at dispatch.
//     Skipping their expiries is therefore safe, and the default skip
//     policy ignores them. They still report real deadlines: NextWakeAll
//     clamps to them too, giving a maximally conservative engine that
//     sanitizer builds run so the skip audit (Audit, DESIGN.md §6b) is a
//     strict invariant — and so the san/non-san differential oracle
//     proves the aggressive and conservative policies byte-identical.
//
// The contract that makes cycle-skipping sound is one-sided: a Waker may
// report an event *earlier* than the component really needs (the loop
// just lands on a quiet cycle and ticks through it, exactly as the
// lockstep engine would), but it must never report one *later*. The
// queue therefore re-polls every waker on each NextWake call rather than
// trusting cached deadlines: passive components acquire new timers
// whenever a core's tick accesses them, and a core's next-progress cycle
// is recomputed by every tick, so cached deadlines can move in either
// direction.
//
// A Queue belongs to one simulation goroutine, like every component it
// schedules.
package sched

import "fmt"

// None is the "no pending event" sentinel (^uint64(0)). A Waker with
// nothing scheduled returns it, and NextWake returns it when no
// registered waker has a pending event.
const None = ^uint64(0)

// Waker is implemented by every time-driven simulation component.
type Waker interface {
	// NextEventAt returns the earliest cycle strictly greater than now at
	// which the component can act or change observable state — a core's
	// next possible retire/dispatch, a DRAM bank timer expiry, an
	// in-flight cache fill arrival — or None when nothing is pending.
	// Returning a cycle at or before now is a contract violation: the
	// caller just simulated cycle now, so an event "due" there has either
	// been handled or can never be.
	NextEventAt(now uint64) uint64
}

// entry is one registered waker with its cached deadline.
type entry struct {
	name string
	w    Waker
	at   uint64
}

// Queue holds the registered wakers: hard ones in an indexed min-heap
// ordered by next-event cycle, lazy ones in a flat list consulted only
// by the conservative paths. Register wakers once at engine start;
// NextWake then yields the skip target for each clock advance.
type Queue struct {
	entries []entry // hard wakers (heap-indexed)
	heap    []int   // heap[i] = index into entries; ordered by entries[].at
	pos     []int   // pos[entryIdx] = position in heap
	lazy    []entry // lazy wakers (NextWakeAll and Audit only)
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{}
}

// Register adds a hard waker under a diagnostic name (reported by Audit
// failures and the contract panic). Every skip is clamped to the
// earliest hard wakeup. Registration order matters only as a fast-path
// hint: NextWake polls in this order and early-exits on a now+1 report,
// so register the most often busy components first.
func (q *Queue) Register(name string, w Waker) {
	if w == nil {
		panic("sched: Register called with nil waker")
	}
	idx := len(q.entries)
	q.entries = append(q.entries, entry{name: name, w: w, at: None})
	q.heap = append(q.heap, idx)
	q.pos = append(q.pos, len(q.heap)-1)
}

// RegisterLazy adds a lazy waker: a passive component whose reported
// deadlines bound its next internal state-machine transition but whose
// transitions materialise lazily at access time, so the default skip
// policy may jump over them (see the package comment for why that is
// sound). Lazy wakers participate in NextWakeAll and Audit.
func (q *Queue) RegisterLazy(name string, w Waker) {
	if w == nil {
		panic("sched: RegisterLazy called with nil waker")
	}
	q.lazy = append(q.lazy, entry{name: name, w: w, at: None})
}

// Len returns the number of registered wakers of both classes.
func (q *Queue) Len() int { return len(q.entries) + len(q.lazy) }

// NextWake re-polls every hard waker at cycle now and returns the
// earliest pending event, or None when nothing is scheduled. It panics
// if any waker violates the strictly-after-now contract — that is an
// engine bug, not a recoverable condition.
//
// The poll early-exits as soon as any waker reports now+1: no wakeup can
// be earlier (the contract forbids <= now), so the remaining polls can't
// change the answer. This is the event engine's fast path — a cycle on
// which the first-registered core makes progress costs one poll, not a
// full sweep, and the full sweep only runs when a real skip is available
// to amortise it. Entries skipped by the early exit keep stale cached
// deadlines, which is harmless: every call re-polls, nothing trusts the
// cache.
func (q *Queue) NextWake(now uint64) uint64 {
	min := None
	for i := range q.entries {
		e := &q.entries[i]
		at := e.w.NextEventAt(now)
		if at <= now {
			panic(fmt.Sprintf("sched: waker %q scheduled a wakeup at cycle %d, at or before the current cycle %d",
				e.name, at, now))
		}
		if at != e.at {
			e.at = at
			q.fix(q.pos[i])
		}
		if at < min {
			min = at
			if at == now+1 {
				return at
			}
		}
	}
	return min
}

// NextWakeAll is NextWake over both waker classes: the maximally
// conservative skip target, landing on every passive timer expiry as
// well as every core event. Sanitizer-enabled runs use it so the skip
// audit holds strictly; it is never required for correctness (that is
// exactly what the san/non-san differential oracle demonstrates).
func (q *Queue) NextWakeAll(now uint64) uint64 {
	min := q.NextWake(now)
	if min == now+1 {
		return min
	}
	if lz := q.NextWakeLazy(now); lz < min {
		min = lz
	}
	return min
}

// NextWakeLazy polls only the lazy wakers and returns their earliest
// pending event. The system's conservative skip path combines it with
// its own exact per-core deadlines (which it keeps fresher than the
// queue's cache — a core's deadline changes only when that core ticks,
// so the engine re-polls cores at tick time rather than per advance).
func (q *Queue) NextWakeLazy(now uint64) uint64 {
	min := None
	for i := range q.lazy {
		e := &q.lazy[i]
		at := e.w.NextEventAt(now)
		if at <= now {
			panic(fmt.Sprintf("sched: waker %q scheduled a wakeup at cycle %d, at or before the current cycle %d",
				e.name, at, now))
		}
		e.at = at
		if at < min {
			min = at
			if at == now+1 {
				return at
			}
		}
	}
	return min
}

// Audit re-polls every waker of both classes at cycle prev and calls
// fail for each one reporting a pending event inside the open interval
// (prev, next) — the cycles a skip from prev to next would jump over.
// The event engine's sanitizer hook runs it after every multi-cycle
// advance (sanitized runs take NextWakeAll skips, so a hit means the
// scheduler chose a skip target past a component's pending work).
func (q *Queue) Audit(prev, next uint64, fail func(name string, at uint64)) {
	check := func(es []entry) {
		for i := range es {
			e := &es[i]
			at := e.w.NextEventAt(prev)
			if at > prev && at < next {
				fail(e.name, at)
			}
		}
	}
	check(q.entries)
	check(q.lazy)
}

// fix restores the heap property for the entry at heap position i after
// its deadline changed in either direction.
func (q *Queue) fix(i int) {
	if !q.up(i) {
		q.down(i)
	}
}

func (q *Queue) less(i, j int) bool {
	return q.entries[q.heap[i]].at < q.entries[q.heap[j]].at
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = i
	q.pos[q.heap[j]] = j
}

// up sifts position i toward the root, reporting whether it moved.
func (q *Queue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts position i toward the leaves.
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
