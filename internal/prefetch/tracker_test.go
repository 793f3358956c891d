package prefetch

import (
	"testing"

	"bingo/internal/mem"
)

func newTestTracker(t *testing.T) *RegionTracker {
	t.Helper()
	rc := mem.MustRegionConfig(2048)
	return MustNewRegionTracker(rc, 16, 32, 4)
}

func addr(region uint64, block int) mem.Addr {
	return mem.Addr(region*2048 + uint64(block)*64)
}

func TestFirstAccessTriggers(t *testing.T) {
	rt := newTestTracker(t)
	trig := rt.Observe(0x400, addr(5, 3), false)
	if trig == nil {
		t.Fatal("first access should trigger")
	}
	if trig.PC != 0x400 || trig.Offset != 3 || trig.Region != 5 || trig.Base != mem.Addr(5*2048) {
		t.Fatalf("trigger = %+v", trig)
	}
	if trig.Addr != addr(5, 3) {
		t.Fatalf("trigger addr = %v", trig.Addr)
	}
	// Later accesses to the same region do not trigger.
	if rt.Observe(0x404, addr(5, 4), false) != nil {
		t.Fatal("second access should not trigger")
	}
	if rt.Observe(0x408, addr(5, 3), false) != nil {
		t.Fatal("repeat access should not trigger")
	}
}

func TestEvictionCompletesFootprint(t *testing.T) {
	rt := newTestTracker(t)
	var completed []ActiveRegion
	rt.SetCompleteFunc(func(ar ActiveRegion) { completed = append(completed, ar) })

	rt.Observe(0x400, addr(5, 3), false)
	rt.Observe(0x404, addr(5, 7), false)
	rt.Observe(0x408, addr(5, 1), false)

	ar, ok := rt.OnEviction(addr(5, 7))
	if !ok {
		t.Fatal("eviction of a tracked block should end the residency")
	}
	want := Footprint(0).With(3).With(7).With(1)
	if ar.Footprint != want {
		t.Fatalf("footprint = %s, want %s", ar.Footprint.StringN(32), want.StringN(32))
	}
	if ar.TriggerPC != 0x400 || ar.TriggerOffset != 3 {
		t.Fatalf("trigger info = %+v", ar)
	}
	if len(completed) != 1 {
		t.Fatalf("complete callback fired %d times", len(completed))
	}
	if rt.CompletedResidencies != 1 {
		t.Fatalf("CompletedResidencies = %d", rt.CompletedResidencies)
	}
	// Region is no longer tracked: next access re-triggers.
	if rt.Observe(0x400, addr(5, 0), false) == nil {
		t.Fatal("region should re-trigger after residency end")
	}
}

func TestSingleBlockRegionsDropped(t *testing.T) {
	rt := newTestTracker(t)
	var completed int
	rt.SetCompleteFunc(func(ActiveRegion) { completed++ })

	rt.Observe(0x400, addr(9, 2), false)
	rt.Observe(0x404, addr(9, 2), false) // same block: stays a single
	if _, ok := rt.OnEviction(addr(9, 2)); ok {
		t.Fatal("single-block region should not be returned for training")
	}
	if completed != 0 {
		t.Fatal("single-block region should not complete")
	}
	if rt.DroppedSingles != 1 {
		t.Fatalf("DroppedSingles = %d", rt.DroppedSingles)
	}
}

func TestUntrackedEvictionIgnored(t *testing.T) {
	rt := newTestTracker(t)
	if _, ok := rt.OnEviction(addr(42, 0)); ok {
		t.Fatal("eviction of an untracked region should be a no-op")
	}
}

func TestCapacityCompletion(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	rt := MustNewRegionTracker(rc, 16, 4, 4) // 4-entry accumulation table
	var completed []ActiveRegion
	rt.SetCompleteFunc(func(ar ActiveRegion) { completed = append(completed, ar) })

	// Promote 5 regions into the 4-entry accumulation table: the LRU one
	// must be displaced and completed.
	for r := uint64(0); r < 5; r++ {
		rt.Observe(0x400, addr(r, 0), false)
		rt.Observe(0x404, addr(r, 1), false)
	}
	if len(completed) != 1 {
		t.Fatalf("capacity completion fired %d times, want 1", len(completed))
	}
	if rt.CapacityCompletions != 1 {
		t.Fatalf("CapacityCompletions = %d", rt.CapacityCompletions)
	}
	if completed[0].Footprint.Count() != 2 {
		t.Fatalf("displaced footprint = %+v", completed[0])
	}
}

func TestStorageBits(t *testing.T) {
	rt := newTestTracker(t)
	if rt.StorageBits() <= 0 {
		t.Fatal("storage should be positive")
	}
	if rt.Region().Blocks() != 32 {
		t.Fatalf("region geometry = %+v", rt.Region())
	}
}

func TestTrackerValidation(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	if _, err := NewRegionTracker(rc, 3, 32, 4); err == nil {
		t.Error("bad filter geometry should fail")
	}
	if _, err := NewRegionTracker(rc, 16, 3, 4); err == nil {
		t.Error("bad accumulation geometry should fail")
	}
	if _, err := NewRegionTracker(rc, 1<<16, 16, 16); err == nil {
		t.Error("a tracker with more entries than a presence count holds should fail")
	}
}
