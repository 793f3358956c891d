package cpu

import (
	"reflect"
	"testing"

	"bingo/internal/trace"
	"bingo/internal/vm"
)

// stretchPair builds two cores on the same records behind fixed-latency
// ports: one to drive with RunAhead, one to tick every cycle.
func stretchPair(cfg Config, recs []trace.Record, latency uint64) (ra, ref *Core) {
	build := func() *Core {
		return MustNew(cfg, 0, trace.NewSliceSource(recs), vm.Identity{}, &fixedPort{latency: latency})
	}
	return build(), build()
}

// driveTo runs c ahead to bound, issuing every suspended memory
// operation, and returns how RunAhead last stopped.
func driveTo(c *Core, bound, target uint64) (Stop, uint64) {
	for {
		stop, at := c.RunAhead(bound, target)
		if stop != AtMemOp {
			return stop, at
		}
		c.Issue()
	}
}

// stretchAt runs ra ahead until its next tick is at cycle from, and
// requires a stretch to apply there.
func stretchAt(t *testing.T, ra *Core, from, bound, target uint64) {
	t.Helper()
	if stop, _ := driveTo(ra, from, target); stop != AtBound || ra.At() != from {
		t.Fatalf("core stopped with %v, next tick at %d, not at %d", stop, ra.At(), from)
	}
	if !ra.stretch(bound, target) {
		t.Fatalf("no stretch at cycle %d", from)
	}
}

// sameAsTicking ticks ref on every cycle below bound and requires ra,
// run ahead to bound, to match it: pipeline state and the cycle of the
// next tick.
func sameAsTicking(t *testing.T, ra, ref *Core, bound uint64) {
	t.Helper()
	if stop, _ := driveTo(ra, bound, ^uint64(0)); stop != AtBound {
		t.Fatalf("run-ahead core stopped with %v below bound %d", stop, bound)
	}
	for cycle := uint64(0); cycle < bound; cycle++ {
		ref.Tick(cycle)
	}
	if got, want := stateOf(ra), stateOf(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged at bound %d:\n run-ahead %+v\n reference %+v", bound, got, want)
	}
	if want := ref.NextEventAt(bound - 1); ra.At() != want {
		t.Fatalf("run-ahead core waits for cycle %d, ticking for %d", ra.At(), want)
	}
}

// A stall-fill that fills the ROB on the cycle before the bound must
// leave the core waiting for the head load's completion, not parked at
// the bound: the loop computes its next cut from that cycle.
func TestStallFillThatFillsROBAtBoundWaitsForHead(t *testing.T) {
	cfg := Config{Width: 4, ROBSize: 16, LSQSize: 4}
	recs := []trace.Record{{PC: 1, Addr: 0}, {PC: 2, Addr: 64, NonMem: 1000}}
	ra, ref := stretchPair(cfg, recs, 100)
	ra.Enter(0)
	// Tick 0 issues the load and dispatches 3; ticks 1–3 dispatch 4 each.
	stretchAt(t, ra, 1, 4, ^uint64(0))
	if ra.robCount != cfg.ROBSize || ra.At() != 100 {
		t.Fatalf("after the stall-fill: ROB %d/%d, next tick at %d; want a full ROB waiting for cycle 100",
			ra.robCount, cfg.ROBSize, ra.At())
	}
	sameAsTicking(t, ra, ref, 4)
	if ra.Stats().MemStall != 3 {
		t.Fatalf("MemStall = %d, want 3", ra.Stats().MemStall)
	}
}

// A steady stretch stops one tick short of the target, so the tick that
// reaches it runs alone and Reached names the lockstep cycle.
func TestSteadyStretchStopsBeforeTarget(t *testing.T) {
	cfg := Config{Width: 4, ROBSize: 256, LSQSize: 64}
	recs := []trace.Record{{PC: 1, Addr: 0, NonMem: 1000}}
	for _, target := range []uint64{400, 401, 403, 404} {
		ra, ref := stretchPair(cfg, recs, 1)
		ra.Enter(0)
		stretchAt(t, ra, 1, ^uint64(0), target)
		if got, want := ra.Stats().Instructions, (target-1)/4*4; got != want {
			t.Fatalf("target %d: the stretch retired %d instructions, want %d", target, got, want)
		}
		stop, at := driveTo(ra, ^uint64(0), target)
		var reach uint64
		for ; ref.Stats().Instructions < target; reach++ {
			ref.Tick(reach)
		}
		reach-- // the cycle of the tick that reached target
		if stop != Reached || at != reach {
			t.Fatalf("target %d: RunAhead stopped with %v at %d; ticking reaches it at %d", target, stop, at, reach)
		}
		if ra.Stats() != ref.Stats() {
			t.Fatalf("target %d: stats diverge:\n run-ahead %+v\n reference %+v", target, ra.Stats(), ref.Stats())
		}
	}
}

// Stretches at width 1, and in a ROB smaller than two dispatch groups,
// where a stall-fill has no room for a second tick.
func TestStretchOnNarrowCores(t *testing.T) {
	recs := func(nonMem uint32) []trace.Record {
		return []trace.Record{{PC: 1, Addr: 0}, {PC: 2, Addr: 64, NonMem: nonMem}}
	}
	t.Run("width 1", func(t *testing.T) {
		cfg := Config{Width: 1, ROBSize: 4, LSQSize: 2}
		ra, ref := stretchPair(cfg, recs(50), 30)
		ra.Enter(0)
		// Tick 0 issues the load; tick 1 fetches the next record and
		// dispatches one; a stall-fill over ticks 2–3 fills the ROB.
		stretchAt(t, ra, 2, 60, ^uint64(0))
		if ra.At() != 30 {
			t.Fatalf("after the stall-fill the core waits for cycle %d, want 30", ra.At())
		}
		stretchAt(t, ra, 31, 60, ^uint64(0)) // steady behind the retired load
		sameAsTicking(t, ra, ref, 60)
	})
	t.Run("ROB below two groups", func(t *testing.T) {
		cfg := Config{Width: 4, ROBSize: 6, LSQSize: 2}
		ra, ref := stretchPair(cfg, recs(40), 30)
		ra.Enter(0)
		if stop, _ := driveTo(ra, 1, ^uint64(0)); stop != AtBound || ra.robCount != 4 {
			t.Fatalf("after tick 0: %v with %d in the ROB, want 4", stop, ra.robCount)
		}
		if ra.stretch(60, ^uint64(0)) {
			t.Fatal("stall-fill stretched with room for less than one dispatch group")
		}
		stretchAt(t, ra, 31, 60, ^uint64(0)) // steady once the load retires
		sameAsTicking(t, ra, ref, 60)
	})
}
