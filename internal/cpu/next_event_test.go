package cpu

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bingo/internal/cache"
	"bingo/internal/mem"
	"bingo/internal/trace"
	"bingo/internal/vm"
)

// variedPort completes accesses after a deterministic but irregular
// latency, so ROB-head stalls, LSQ pressure, and dependence stalls all
// overlap in the reference runs below.
type variedPort struct{ n uint64 }

func (p *variedPort) Access(now uint64, req cache.Request) cache.Result {
	p.n++
	lat := 3 + (p.n*p.n*31)%211 // 3..213 cycles, irregular
	return cache.Result{CompleteAt: now + lat, HitLevel: "X"}
}

// randomRecords builds a trace mixing short non-memory bursts, loads,
// stores, and dependent (pointer-chase) loads. One record in five has a
// long non-memory run instead, up to 400, so RunAhead's steady and
// stall-fill stretches span many cycles and fill and drain the ROB.
func randomRecords(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		r := trace.Record{
			PC:     mem.PC(rng.Intn(64) * 4),
			Addr:   mem.Addr(rng.Intn(1<<16) * 8),
			NonMem: uint32(rng.Intn(6)),
		}
		if rng.Intn(4) == 0 {
			r.Kind = trace.Store
		}
		if rng.Intn(3) == 0 {
			r.Dep = true
		}
		if rng.Intn(5) == 0 {
			r.NonMem = uint32(rng.Intn(401))
		}
		recs[i] = r
	}
	return recs
}

// progressSnapshot captures everything a Tick can change besides time
// and the MemStall sampling counter.
type progressSnapshot struct {
	instructions uint64
	cur          trace.Record
	exhausted    bool
	robCount     int
	nonMemLeft   uint32
	curValid     bool
	outstanding  int
}

func snap(c *Core) progressSnapshot {
	return progressSnapshot{
		instructions: c.stats.Instructions,
		cur:          c.cur,
		exhausted:    c.exhausted,
		robCount:     c.robCount,
		nonMemLeft:   c.nonMemLeft,
		curValid:     c.curValid,
		outstanding:  len(c.outstanding),
	}
}

// TestNextEventAtIsExact drives a core cycle by cycle (the lockstep
// reference) and checks, at every cycle, that NextEventAt names exactly
// the next cycle at which the core retires or dispatches anything.
// Exactness matters in both directions: a late prediction would let the
// event engine skip real work (wrong simulation), an early one would
// only cost skipped cycles — but the analysis in NextEventAt claims to
// be exact, so the test pins equality, not just safety.
func TestNextEventAtIsExact(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 4, ROBSize: 256, LSQSize: 64},
		{Width: 2, ROBSize: 16, LSQSize: 4}, // tiny windows: LSQ/ROB pressure
		{Width: 1, ROBSize: 4, LSQSize: 2},
	} {
		c, err := New(cfg, 0, trace.NewSliceSource(randomRecords(11, 3000)), vm.Identity{}, &variedPort{})
		if err != nil {
			t.Fatal(err)
		}

		// Lockstep reference: record the cycles at which progress happened
		// and the prediction made right after each tick.
		var progressCycles []uint64
		predictions := make(map[uint64]uint64)
		for cycle := uint64(0); !c.Done(); cycle++ {
			before := snap(c)
			c.Tick(cycle)
			if snap(c) != before {
				progressCycles = append(progressCycles, cycle)
			}
			if !c.Done() {
				predictions[cycle] = c.NextEventAt(cycle)
			}
			if cycle > 5_000_000 {
				t.Fatal("core did not drain")
			}
		}
		if len(progressCycles) == 0 {
			t.Fatal("reference run made no progress")
		}

		next := ^uint64(0) // next progress cycle strictly after the key
		idx := len(progressCycles) - 1
		for cycle := progressCycles[len(progressCycles)-1]; ; cycle-- {
			for idx >= 0 && progressCycles[idx] > cycle {
				idx--
			}
			if pred, ok := predictions[cycle]; ok {
				if pred != next {
					t.Fatalf("cfg %+v: NextEventAt(%d) = %d, but next progress cycle is %d", cfg, cycle, pred, next)
				}
			}
			// Entering cycle-1, cycle itself becomes a candidate "next".
			if idx >= 0 && progressCycles[idx] == cycle {
				next = cycle
			}
			if cycle == 0 {
				break
			}
		}
	}
}

// runAheadToEnd drives c with RunAhead and no bound, issuing every
// suspended memory operation at once, until it drains. It returns the
// cycle of its last tick and the number of RunAhead calls.
func runAheadToEnd(t *testing.T, c *Core) (last, calls uint64) {
	t.Helper()
	c.Enter(0)
	for !c.Done() {
		stop, at := c.RunAhead(^uint64(0), ^uint64(0))
		calls++
		switch stop {
		case AtMemOp:
			c.Issue()
		case Reached:
			last = at
		case AtBound:
			t.Fatalf("live core parked at cycle %d with no bound", c.At())
		}
		if c.At() != ^uint64(0) && c.At() > 5_000_000 {
			t.Fatal("run-ahead core did not drain")
		}
	}
	return last, calls
}

// TestEventSteppedCoreMatchesLockstep runs the same core twice: once
// ticking every cycle, once running ahead on its own (ticking only at
// the cycles NextEventAt names and accruing MemStall over the gaps).
// Final statistics must be deeply equal — including MemStall, the one
// counter the skipped cycles would otherwise lose.
func TestEventSteppedCoreMatchesLockstep(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 4, ROBSize: 256, LSQSize: 64},
		{Width: 2, ROBSize: 16, LSQSize: 4},
	} {
		build := func() *Core {
			c, err := New(cfg, 0, trace.NewSliceSource(randomRecords(23, 4000)), vm.Identity{}, &variedPort{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}

		lock := build()
		var lockCycles uint64
		for cycle := uint64(0); !lock.Done(); cycle++ {
			lock.Tick(cycle)
			lockCycles = cycle
			if cycle > 5_000_000 {
				t.Fatal("lockstep core did not drain")
			}
		}

		ev := build()
		last, calls := runAheadToEnd(t, ev)
		if last != lockCycles {
			t.Fatalf("cfg %+v: run-ahead core drained at cycle %d, lockstep at %d", cfg, last, lockCycles)
		}
		if ev.Stats() != lock.Stats() {
			t.Fatalf("cfg %+v: stats diverge:\n  event:    %+v\n  lockstep: %+v", cfg, ev.Stats(), lock.Stats())
		}
		if calls > lockCycles {
			t.Fatalf("cfg %+v: run-ahead took %d calls over %d cycles — no skipping happened", cfg, calls, lockCycles)
		}
	}
}

// recordingPort returns seeded random latencies and logs the (cycle,
// address) of every access, so two cores driven differently can be
// required to present the identical access sequence to the hierarchy.
type recordingPort struct {
	rng *rand.Rand
	log []portAccess
}

type portAccess struct {
	cycle uint64
	addr  mem.Addr
}

func (p *recordingPort) Access(now uint64, req cache.Request) cache.Result {
	p.log = append(p.log, portAccess{now, req.Addr})
	return cache.Result{CompleteAt: now + 1 + uint64(p.rng.Intn(300)), HitLevel: "X"}
}

// loopSource replays recs in a loop and never ends.
type loopSource struct {
	recs []trace.Record
	pos  int
}

func (s *loopSource) Next() (trace.Record, bool) {
	r := s.recs[s.pos%len(s.recs)]
	s.pos++
	return r, true
}

// coreState is everything in a core that a cycle can change.
type coreState struct {
	stats        Stats
	rob          []robEntry
	robTail      uint32
	robCount     int
	outstanding  []uint64
	cur          trace.Record
	curValid     bool
	nonMemLeft   uint32
	exhausted    bool
	lastLoadDone uint64
}

func stateOf(c *Core) coreState {
	st := coreState{
		stats: c.stats, cur: c.cur, curValid: c.curValid, nonMemLeft: c.nonMemLeft,
		exhausted: c.exhausted, lastLoadDone: c.lastLoadDone,
		robTail: c.robTail, robCount: c.robCount,
		outstanding: append([]uint64(nil), c.outstanding...),
	}
	for i := 0; i < c.robMem; i++ {
		st.rob = append(st.rob, c.rob[(c.robHead+i)%len(c.rob)])
	}
	return st
}

// TestRunAheadMatchesTickEveryCycle is the core-level exactness oracle of
// the event engine. A core runs ahead to random bounds, resuming each
// suspended memory operation, sometimes re-entering at a bound as a
// resumed run does; a reference core ticks every cycle. At every bound
// the two must agree exactly on statistics, ROB contents and the rest of
// the pipeline, and on the (cycle, address) sequence their ports saw.
// Every Reached report must name the first cycle the reference reaches
// the target, and EarliestReach must never exceed it.
func TestRunAheadMatchesTickEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		loop  bool // replay the records forever
		drain bool // target beyond the trace: the core reaches it by draining
	}{
		{Config{Width: 4, ROBSize: 256, LSQSize: 64}, false, false},
		{Config{Width: 2, ROBSize: 16, LSQSize: 4}, false, false},
		{Config{Width: 1, ROBSize: 4, LSQSize: 2}, false, false},
		{Config{Width: 4, ROBSize: 6, LSQSize: 2}, false, false}, // ROB below two dispatch groups
		{Config{Width: 4, ROBSize: 64, LSQSize: 16}, true, false},
		{Config{Width: 4, ROBSize: 64, LSQSize: 16}, false, true},
	} {
		recs := randomRecords(61, 3000)
		build := func() (*Core, *recordingPort) {
			var src trace.Source = trace.NewSliceSource(recs)
			if tc.loop {
				src = &loopSource{recs: recs}
			}
			port := &recordingPort{rng: rand.New(rand.NewSource(5))}
			c, err := New(tc.cfg, 0, src, vm.Identity{}, port)
			if err != nil {
				t.Fatal(err)
			}
			return c, port
		}
		ref, refPort := build()
		ra, raPort := build()
		rng := rand.New(rand.NewSource(83))

		target := uint64(1 + rng.Intn(2000))
		if tc.drain {
			target = 1 << 40
		}
		refReach, raReach, lowest := ^uint64(0), ^uint64(0), uint64(0)
		checked := 0 // port log entries already compared
		ra.Enter(0)
		for cycle := uint64(0); (!ref.Done() || !ra.Done()) && cycle < 1_000_000; {
			bound := cycle + 1 + uint64(rng.Intn(400))
			for ; cycle < bound; cycle++ {
				if ref.Done() {
					continue
				}
				ref.Tick(cycle)
				if refReach == ^uint64(0) && (ref.stats.Instructions >= target || ref.Done()) {
					refReach = cycle
				}
			}
			for {
				tgt := target
				if raReach != ^uint64(0) {
					tgt = ^uint64(0)
				}
				stop, at := ra.RunAhead(bound, tgt)
				if raReach == ^uint64(0) && stop != Reached {
					lowest = max(lowest, ra.EarliestReach(target))
				}
				if stop == AtBound {
					break
				}
				if stop == AtMemOp {
					if at >= bound {
						t.Fatalf("cfg %+v: suspended at cycle %d past the bound %d", tc.cfg, at, bound)
					}
					ra.Issue()
				} else if raReach == ^uint64(0) {
					raReach = at
				}
			}
			if got, want := stateOf(ra), stateOf(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v: state diverged at bound %d:\n run-ahead %+v\n reference %+v", tc.cfg, bound, got, want)
			}
			// The logs only grow, so comparing what each added since the
			// last bound compares them whole.
			if len(raPort.log) != len(refPort.log) || !slices.Equal(raPort.log[checked:], refPort.log[checked:]) {
				t.Fatalf("cfg %+v: port sequences diverged by bound %d (%d vs %d accesses)",
					tc.cfg, bound, len(raPort.log), len(refPort.log))
			}
			checked = len(refPort.log)
			if rng.Intn(8) == 0 {
				ra.Enter(bound) // a resumed run ticks every live core at entry
			}
		}
		if refReach == ^uint64(0) {
			t.Fatalf("cfg %+v: reference never reached target %d", tc.cfg, target)
		}
		if raReach != refReach {
			t.Fatalf("cfg %+v: run-ahead reached target at cycle %d, reference at %d", tc.cfg, raReach, refReach)
		}
		if lowest > refReach {
			t.Fatalf("cfg %+v: EarliestReach promised %d, after the reach at %d", tc.cfg, lowest, refReach)
		}
		if len(refPort.log) == 0 {
			t.Fatal("reference issued no memory operations")
		}
	}
}
