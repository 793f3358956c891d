package telemetry

import "testing"

func TestLifecycleConservation(t *testing.T) {
	l := NewLifecycle(2)

	// Core 0: predicts 6; 1 dropped at the queue, 1 redundant, 4 fill.
	// Of the fills: 1 timely use, 1 late use, 1 unused eviction, 1 still
	// resident.
	l.Predicted(0, 6)
	l.QueueDropped(0, 1)
	l.PrefetchRedundant(0)
	for i := 0; i < 4; i++ {
		l.PrefetchFill(0)
	}
	l.PrefetchUse(0, false, 120)
	l.PrefetchUse(0, true, 35)
	l.PrefetchEvictUnused(0)

	// Core 1: everything dropped.
	l.Predicted(1, 3)
	l.QueueDropped(1, 3)

	c0 := l.Core(0)
	want := LifecycleStats{Issued: 6, QueueDropped: 1, Redundant: 1, Fills: 4, Timely: 1, Late: 1, UnusedEvicted: 1, InFlight: 1}
	if c0 != want {
		t.Fatalf("core 0 stats = %+v, want %+v", c0, want)
	}
	if !c0.Conserves() {
		t.Fatal("core 0 does not conserve")
	}
	tot := l.Totals()
	if !tot.Conserves() {
		t.Fatalf("totals do not conserve: %+v", tot)
	}
	if tot.Issued != 9 || tot.QueueDropped != 4 {
		t.Fatalf("totals = %+v", tot)
	}
	if got := tot.Used(); got != 2 {
		t.Fatalf("Used = %d, want 2", got)
	}
}

func TestLifecycleFractions(t *testing.T) {
	var s LifecycleStats
	if s.TimelyFraction() != 0 || s.LateFraction() != 0 || s.UnusedFraction() != 0 {
		t.Fatal("zero stats must yield zero fractions")
	}
	s = LifecycleStats{Fills: 8, Timely: 4, Late: 2, UnusedEvicted: 1, InFlight: 1, Issued: 8}
	if s.TimelyFraction() != 0.5 {
		t.Errorf("timely fraction = %v, want 0.5", s.TimelyFraction())
	}
	if s.LateFraction() != 0.25 {
		t.Errorf("late fraction = %v, want 0.25", s.LateFraction())
	}
	if s.UnusedFraction() != 0.125 {
		t.Errorf("unused fraction = %v, want 0.125", s.UnusedFraction())
	}
}

// TestLifecycleHistograms checks the two wait sums that back the
// "prefetch.use_margin_cycles" and "prefetch.late_wait_cycles" metrics:
// timely margins and late waits add up separately, and Reset zeroes
// them with the counters.
func TestLifecycleHistograms(t *testing.T) {
	l := NewLifecycle(2)
	for i := 0; i < 4; i++ {
		l.PrefetchFill(i % 2)
	}
	l.PrefetchUse(0, false, 100)
	l.PrefetchUse(1, false, 20)
	l.PrefetchUse(0, true, 7)
	l.PrefetchUse(5, true, 1000) // out-of-range core: dropped
	if margin, late := l.WaitCycles(); margin != 120 || late != 7 {
		t.Errorf("wait cycles = margin %d / late %d, want 120/7", margin, late)
	}
	if tot := l.Totals(); tot.Timely != 2 || tot.Late != 1 {
		t.Errorf("timely/late = %d/%d, want 2/1", tot.Timely, tot.Late)
	}
	l.Reset()
	if margin, late := l.WaitCycles(); margin != 0 || late != 0 {
		t.Errorf("wait cycles after Reset = %d/%d, want 0/0", margin, late)
	}
}

func TestLifecycleResetAndBounds(t *testing.T) {
	l := NewLifecycle(1)
	l.Predicted(0, 2)
	l.PrefetchFill(0)
	l.Reset()
	if l.Totals() != (LifecycleStats{}) {
		t.Fatalf("reset left state: %+v", l.Totals())
	}
	// Out-of-range cores are dropped, not a crash.
	l.Predicted(5, 1)
	l.PrefetchFill(-1)
	l.PrefetchUse(7, true, 1)
	l.PrefetchEvictUnused(9)
	l.QueueDropped(-2, 1)
	l.PrefetchRedundant(3)
	if l.Totals() != (LifecycleStats{}) {
		t.Fatalf("out-of-range events recorded: %+v", l.Totals())
	}
	// A use without a tracked fill (possible across a stats reset) must
	// not underflow InFlight.
	l.PrefetchUse(0, false, 1)
	if l.Core(0).InFlight != 0 {
		t.Fatalf("InFlight underflowed: %+v", l.Core(0))
	}
}
