package cache

import (
	"reflect"
	"testing"
)

// probeEvent is one recorded PrefetchProbe callback.
type probeEvent struct {
	kind   string // "redundant", "fill", "use", "evict"
	core   int
	late   bool
	cycles uint64
}

// recordingProbe captures the lifecycle callbacks in order.
type recordingProbe struct {
	events []probeEvent
}

func (p *recordingProbe) PrefetchRedundant(core int) {
	p.events = append(p.events, probeEvent{kind: "redundant", core: core})
}
func (p *recordingProbe) PrefetchFill(core int) {
	p.events = append(p.events, probeEvent{kind: "fill", core: core})
}
func (p *recordingProbe) PrefetchUse(core int, late bool, cycles uint64) {
	p.events = append(p.events, probeEvent{kind: "use", core: core, late: late, cycles: cycles})
}
func (p *recordingProbe) PrefetchEvictUnused(core int) {
	p.events = append(p.events, probeEvent{kind: "evict", core: core})
}

func TestPrefetchProbeLifecycle(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2) // lower latency 100, hit latency 2
	probe := &recordingProbe{}
	c.SetPrefetchProbe(probe)

	// Fill, then a redundant prefetch to the same block.
	c.Access(0, Request{Addr: 0x1000, Core: 1, Kind: Prefetch})
	c.Access(0, Request{Addr: 0x1000, Core: 2, Kind: Prefetch})

	// Late use: demand at cycle 1 has ready=3, the fill lands at 102.
	res := c.Access(1, Request{Addr: 0x1000, Core: 0, Kind: Demand})
	if res.CompleteAt != 102 {
		t.Fatalf("late demand completes at %d, want 102", res.CompleteAt)
	}

	// Timely use: prefetch at 2 arrives at 104; demand at 200 has
	// ready=202, margin 98. (Cycle 2, not 0: access clocks must be
	// monotone — the sanitized build enforces SAN-CACHE-CLOCK.)
	c.Access(2, Request{Addr: 0x2000, Core: 3, Kind: Prefetch})
	c.Access(200, Request{Addr: 0x2000, Core: 0, Kind: Demand})

	want := []probeEvent{
		{kind: "fill", core: 1},
		{kind: "redundant", core: 2},
		{kind: "use", core: 1, late: true, cycles: 99}, // arrival 102 - ready 3
		{kind: "fill", core: 3},
		{kind: "use", core: 3, late: false, cycles: 98}, // ready 202 - arrival 104
	}
	if !reflect.DeepEqual(probe.events, want) {
		t.Fatalf("probe events:\n got %+v\nwant %+v", probe.events, want)
	}

	// The probe's use classification matches the stats counters.
	st := c.Stats()
	if st.UsefulPrefetch != 2 || st.LatePrefetch != 1 || st.PrefetchFills != 2 || st.PrefetchHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchProbeEvictUnused(t *testing.T) {
	// Direct-mapped single set: the second fill evicts the first.
	lower := &fakeLower{latency: 10}
	c := MustNew(Config{Name: "T", SizeBytes: 64, Assoc: 1, HitLatency: 1}, lower)
	probe := &recordingProbe{}
	c.SetPrefetchProbe(probe)

	c.Access(0, Request{Addr: 0x0000, Core: 2, Kind: Prefetch})
	c.Access(0, Request{Addr: 0x4000, Core: 0, Kind: Demand}) // same set, evicts the prefetch

	want := []probeEvent{
		{kind: "fill", core: 2},
		{kind: "evict", core: 2},
	}
	if !reflect.DeepEqual(probe.events, want) {
		t.Fatalf("probe events:\n got %+v\nwant %+v", probe.events, want)
	}
	if st := c.Stats(); st.UnusedPrefetch != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProbeIsPureObserver pins that attaching a probe changes no timing
// and no stats: two identical access sequences, one probed, must yield
// identical results and counters.
func TestProbeIsPureObserver(t *testing.T) {
	run := func(withProbe bool) ([]Result, Stats) {
		c, _ := smallCache(t, 64*8, 2)
		if withProbe {
			c.SetPrefetchProbe(&recordingProbe{})
		}
		seq := []Request{
			{Addr: 0x1000, Core: 0, Kind: Prefetch},
			{Addr: 0x1000, Core: 1, Kind: Demand},
			{Addr: 0x2000, Core: 1, Kind: Write},
			{Addr: 0x3000, Core: 0, Kind: Prefetch},
			{Addr: 0x3000, Core: 0, Kind: Prefetch},
			{Addr: 0x4000, Core: 1, Kind: Demand},
		}
		var out []Result
		for i, req := range seq {
			out = append(out, c.Access(uint64(i*7), req))
		}
		return out, c.Stats()
	}
	r1, s1 := run(false)
	r2, s2 := run(true)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("probe changed access results")
	}
	if s1 != s2 {
		t.Fatalf("probe changed stats: %+v vs %+v", s1, s2)
	}
}

func TestStatsDelta(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 7, Misses: 3, LateHits: 1, PrefetchIssued: 5, PrefetchFills: 4,
		PrefetchHits: 1, UsefulPrefetch: 2, LatePrefetch: 1, UnusedPrefetch: 1, Evictions: 2, Writebacks: 1}
	b := Stats{Accesses: 25, Hits: 18, Misses: 7, LateHits: 2, PrefetchIssued: 9, PrefetchFills: 7,
		PrefetchHits: 2, UsefulPrefetch: 5, LatePrefetch: 2, UnusedPrefetch: 1, Evictions: 6, Writebacks: 3}
	d := b.Delta(a)
	want := Stats{Accesses: 15, Hits: 11, Misses: 4, LateHits: 1, PrefetchIssued: 4, PrefetchFills: 3,
		PrefetchHits: 1, UsefulPrefetch: 3, LatePrefetch: 1, UnusedPrefetch: 0, Evictions: 4, Writebacks: 2}
	if d != want {
		t.Fatalf("Delta = %+v, want %+v", d, want)
	}
	if b.Delta(Stats{}) != b {
		t.Fatal("delta from zero must equal the stats themselves")
	}
}
