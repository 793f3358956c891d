package cache

import (
	"testing"

	"bingo/internal/mem"
	"bingo/internal/san"
)

// stubLevel is a fixed-latency backstop for the hot-path guard.
type stubLevel struct{}

func (stubLevel) Access(now uint64, req Request) Result {
	return Result{CompleteAt: now + 100, HitLevel: "stub"}
}

// TestAccessHotPathDoesNotAllocate pins the core guarantee of the
// sanitizer design: the per-access hooks live in the hot path, so they
// must cost zero allocations in BOTH build flavors. Untagged, the hooks
// are empty methods on an empty struct; under -tags=san, every check —
// including the periodic deep sweep — works on preallocated state. A
// regression here would show up as harness slowdown long before anything
// crashes, which is why it is a test and not a benchmark eyeball.
// (perfbench's sim_minstr_per_s tracks the wall-clock side of the same
// promise.)
func TestAccessHotPathDoesNotAllocate(t *testing.T) {
	c := MustNew(Config{Name: "L1", SizeBytes: 64 * 1024, Assoc: 8, HitLatency: 4}, stubLevel{})

	// Force the san deep sweep to run inside the measured window so its
	// cost is covered by the guard too.
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 64})

	var now uint64
	var i uint64
	avg := testing.AllocsPerRun(20000, func() {
		now++
		addr := mem.Addr((i * 5 * mem.BlockSize) % (1 << 22)) // mixes hits and misses
		kind := Demand
		switch i % 5 {
		case 3:
			kind = Write
		case 4:
			kind = Prefetch
		}
		c.Access(now, Request{Addr: addr, PC: mem.PC(i & 0xff), Core: 0, Kind: kind})
		i++
	})
	if avg != 0 {
		t.Errorf("cache access hot path allocates %.2f times per access (san.Compiled=%v); want 0",
			avg, san.Compiled)
	}
}
