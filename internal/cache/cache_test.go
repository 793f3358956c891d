package cache

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"bingo/internal/mem"
)

// fakeLower is a constant-latency memory for isolating cache behaviour.
type fakeLower struct {
	latency  uint64
	accesses []Request
	writebs  []mem.Addr
}

func (f *fakeLower) Access(now uint64, req Request) Result {
	f.accesses = append(f.accesses, req)
	return Result{CompleteAt: now + f.latency, HitLevel: "DRAM"}
}

func (f *fakeLower) Writeback(now uint64, addr mem.Addr) {
	f.writebs = append(f.writebs, addr)
}

func smallCache(t *testing.T, sizeBytes, assoc int) (*Cache, *fakeLower) {
	t.Helper()
	lower := &fakeLower{latency: 100}
	c, err := New(Config{Name: "T", SizeBytes: sizeBytes, Assoc: assoc, HitLatency: 2}, lower)
	if err != nil {
		t.Fatal(err)
	}
	return c, lower
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 1},
		{Name: "b", SizeBytes: 100, Assoc: 1},      // not block-divisible
		{Name: "c", SizeBytes: 64 * 3, Assoc: 1},   // 3 sets: not pow2
		{Name: "d", SizeBytes: 1024, Assoc: 0},     // zero assoc
		{Name: "e", SizeBytes: 64 * 8, Assoc: 3},   // not divisible by ways
		{Name: "f", SizeBytes: 64 * 12, Assoc: 2},  // 6 sets: not pow2
		{Name: "g", SizeBytes: 64 * 32, Assoc: 32}, // above the 16 ways an order word ranks
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "cache "+cfg.Name+":") {
			t.Errorf("config %q: got %v, want an error naming the cache", cfg.Name, err)
		}
	}
	for _, ok := range []Config{{Name: "ok", SizeBytes: 64 * 16, Assoc: 2}, {Name: "ok16", SizeBytes: 64 * 16, Assoc: 16}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
	if _, err := New(Config{Name: "ok", SizeBytes: 64 * 16, Assoc: 2}, nil); err == nil {
		t.Error("nil lower level should fail")
	}
}

func TestMissThenHit(t *testing.T) {
	c, lower := smallCache(t, 64*16, 2)
	req := Request{Addr: 0x1000, Kind: Demand}

	res := c.Access(0, req)
	if res.HitLevel != "DRAM" {
		t.Fatalf("first access should miss to DRAM, got %q", res.HitLevel)
	}
	if res.CompleteAt != 2+100 {
		t.Fatalf("miss latency = %d, want 102", res.CompleteAt)
	}

	res = c.Access(200, req)
	if res.HitLevel != "T" {
		t.Fatalf("second access should hit, got %q", res.HitLevel)
	}
	if res.CompleteAt != 202 {
		t.Fatalf("hit latency = %d, want 202", res.CompleteAt)
	}

	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(lower.accesses) != 1 {
		t.Fatalf("lower saw %d accesses, want 1", len(lower.accesses))
	}
}

func TestInFlightCoalescing(t *testing.T) {
	c, lower := smallCache(t, 64*16, 2)
	req := Request{Addr: 0x1000, Kind: Demand}
	c.Access(0, req) // fill completes at 102

	// A second access at cycle 10 must wait for the in-flight fill, not
	// issue a duplicate request below.
	res := c.Access(10, req)
	if res.CompleteAt != 102 {
		t.Fatalf("coalesced access completes at %d, want 102", res.CompleteAt)
	}
	if len(lower.accesses) != 1 {
		t.Fatalf("duplicate request issued below")
	}
	if c.Stats().LateHits != 1 {
		t.Fatalf("LateHits = %d", c.Stats().LateHits)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-per-set: 2 sets × 2 ways. Blocks 0,2,4 share set 0.
	c, _ := smallCache(t, 64*4, 2)
	addr := func(block uint64) mem.Addr { return mem.Addr(block << mem.BlockShift) }

	c.Access(0, Request{Addr: addr(0), Kind: Demand})
	c.Access(1, Request{Addr: addr(2), Kind: Demand})
	c.Access(2, Request{Addr: addr(0), Kind: Demand}) // touch block 0: block 2 is now LRU
	c.Access(3, Request{Addr: addr(4), Kind: Demand}) // evicts block 2

	if !c.Contains(addr(0)) || !c.Contains(addr(4)) {
		t.Fatal("blocks 0 and 4 should be resident")
	}
	if c.Contains(addr(2)) {
		t.Fatal("block 2 should have been evicted (LRU)")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d", c.Stats().Evictions)
	}
}

func TestEvictionListener(t *testing.T) {
	c, _ := smallCache(t, 64*4, 2)
	var evicted []mem.Addr
	c.SetEvictionListener(listenerFunc(func(a mem.Addr) { evicted = append(evicted, a) }))
	addr := func(block uint64) mem.Addr { return mem.Addr(block << mem.BlockShift) }
	c.Access(0, Request{Addr: addr(0), Kind: Demand})
	c.Access(1, Request{Addr: addr(2), Kind: Demand})
	c.Access(2, Request{Addr: addr(4), Kind: Demand}) // evicts block 0
	if len(evicted) != 1 || evicted[0] != addr(0) {
		t.Fatalf("evicted = %v", evicted)
	}
}

type listenerFunc func(mem.Addr)

func (f listenerFunc) OnEviction(a mem.Addr) { f(a) }

func TestWritebackOnDirtyEviction(t *testing.T) {
	c, lower := smallCache(t, 64*4, 2)
	addr := func(block uint64) mem.Addr { return mem.Addr(block << mem.BlockShift) }
	c.Access(0, Request{Addr: addr(0), Kind: Write})
	c.Access(1, Request{Addr: addr(2), Kind: Demand})
	c.Access(2, Request{Addr: addr(4), Kind: Demand}) // evicts dirty block 0
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d", c.Stats().Writebacks)
	}
	if len(lower.writebs) != 1 || lower.writebs[0] != addr(0) {
		t.Fatalf("lower writebacks = %v", lower.writebs)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c, lower := smallCache(t, 64*4, 2)
	addr := func(block uint64) mem.Addr { return mem.Addr(block << mem.BlockShift) }
	c.Access(0, Request{Addr: addr(0), Kind: Demand}) // clean fill
	c.Access(1, Request{Addr: addr(0), Kind: Write})  // hit, mark dirty
	c.Access(2, Request{Addr: addr(2), Kind: Demand})
	c.Access(3, Request{Addr: addr(4), Kind: Demand}) // evicts block 0? (touched at 1) -> block 2 is newer... block 0 LRU? touched at 1 < 2 so evict 0
	if len(lower.writebs) != 1 {
		t.Fatalf("dirty hit should cause writeback on eviction, got %v", lower.writebs)
	}
}

func TestPrefetchFillAndUsefulness(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2)
	pf := Request{Addr: 0x2000, Kind: Prefetch}
	res := c.Access(0, pf)
	if res.HitLevel != "DRAM" {
		t.Fatalf("prefetch miss should go below, got %q", res.HitLevel)
	}
	st := c.Stats()
	if st.PrefetchIssued != 1 || st.PrefetchFills != 1 {
		t.Fatalf("prefetch stats = %+v", st)
	}
	// Demand hit on the prefetched line marks it useful exactly once.
	c.Access(200, Request{Addr: 0x2000, Kind: Demand})
	c.Access(300, Request{Addr: 0x2000, Kind: Demand})
	st = c.Stats()
	if st.UsefulPrefetch != 1 {
		t.Fatalf("UsefulPrefetch = %d, want 1", st.UsefulPrefetch)
	}
	if st.Misses != 0 {
		t.Fatalf("covered access should not count as a miss")
	}
}

func TestRedundantPrefetchDropped(t *testing.T) {
	c, lower := smallCache(t, 64*16, 2)
	c.Access(0, Request{Addr: 0x2000, Kind: Demand})
	c.Access(200, Request{Addr: 0x2000, Kind: Prefetch})
	if got := c.Stats().PrefetchHits; got != 1 {
		t.Fatalf("PrefetchHits = %d", got)
	}
	if len(lower.accesses) != 1 {
		t.Fatal("redundant prefetch should not reach lower level")
	}
}

func TestLatePrefetch(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2)
	c.Access(0, Request{Addr: 0x2000, Kind: Prefetch}) // arrives at 102
	res := c.Access(50, Request{Addr: 0x2000, Kind: Demand})
	if res.CompleteAt != 102 {
		t.Fatalf("late prefetch hit completes at %d, want 102", res.CompleteAt)
	}
	st := c.Stats()
	if st.LatePrefetch != 1 || st.UsefulPrefetch != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnusedPrefetchCountedOnEviction(t *testing.T) {
	c, _ := smallCache(t, 64*4, 2)
	addr := func(block uint64) mem.Addr { return mem.Addr(block << mem.BlockShift) }
	c.Access(0, Request{Addr: addr(0), Kind: Prefetch})
	c.Access(1, Request{Addr: addr(2), Kind: Demand})
	c.Access(2, Request{Addr: addr(4), Kind: Demand}) // evicts prefetched block 0
	if c.Stats().UnusedPrefetch != 1 {
		t.Fatalf("UnusedPrefetch = %d", c.Stats().UnusedPrefetch)
	}
}

func TestFlushReportsEvictions(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2)
	var evicted int
	c.SetEvictionListener(listenerFunc(func(mem.Addr) { evicted++ }))
	for i := uint64(0); i < 8; i++ {
		c.Access(i, Request{Addr: mem.Addr(i << mem.BlockShift), Kind: Demand})
	}
	c.Flush(100)
	if evicted != 8 {
		t.Fatalf("flush evicted %d, want 8", evicted)
	}
	if c.Contains(0) {
		t.Fatal("cache should be empty after flush")
	}
}

func TestWritebackInstall(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2)
	c.Writeback(0, 0x3000)
	if !c.Contains(0x3000) {
		t.Fatal("writeback should install the block")
	}
	// Writeback to an existing line just marks dirty.
	c.Access(1, Request{Addr: 0x4000, Kind: Demand})
	c.Writeback(2, 0x4000)
	if got := c.Stats().Accesses; got != 1 {
		t.Fatalf("writeback should not count as demand access, accesses=%d", got)
	}
}

func TestResetStats(t *testing.T) {
	c, _ := smallCache(t, 64*16, 2)
	c.Access(0, Request{Addr: 0x1000, Kind: Demand})
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats should zero counters")
	}
	if !c.Contains(0x1000) {
		t.Fatal("ResetStats should not flush contents")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Accesses: 100, Hits: 75, Misses: 25}
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
	if s.MPKI(1000) != 25 {
		t.Fatalf("MPKI = %v", s.MPKI(1000))
	}
	if (Stats{}).HitRate() != 0 || (Stats{}).MPKI(0) != 0 {
		t.Fatal("zero-value stats should not divide by zero")
	}
}

func TestAccessKindString(t *testing.T) {
	if Demand.String() != "demand" || Write.String() != "write" || Prefetch.String() != "prefetch" {
		t.Fatal("AccessKind strings wrong")
	}
}

func TestMemoryLevelAdapter(t *testing.T) {
	f := &fakeLower{latency: 9}
	ml := MemoryLevel{Mem: backstopFunc(func(now uint64, addr mem.Addr, write bool) uint64 {
		return now + 9
	})}
	res := ml.Access(5, Request{Addr: 0x40, Kind: Demand})
	if res.CompleteAt != 14 || res.HitLevel != "DRAM" {
		t.Fatalf("MemoryLevel result = %+v", res)
	}
	_ = f
}

type backstopFunc func(uint64, mem.Addr, bool) uint64

func (f backstopFunc) Access(now uint64, addr mem.Addr, write bool) uint64 {
	return f(now, addr, write)
}

// TestHostBytesPerWay pins the way layout: a uint32 tag and a uint64
// meta word per way plus one 64-bit recency order per set is 12.5 host
// bytes per simulated way, so Table I's 8 MB, 16-way LLC takes 1.5625 MiB
// of host memory and a 16-way set's tags fill one 64-byte host line.
func TestHostBytesPerWay(t *testing.T) {
	c := MustNew(Config{Name: "LLC", SizeBytes: 8 << 20, Assoc: 16, HitLatency: 1}, nullLower{})
	bytes := uintptr(len(c.tags))*unsafe.Sizeof(c.tags[0]) +
		uintptr(len(c.meta))*unsafe.Sizeof(c.meta[0]) +
		uintptr(len(c.order))*unsafe.Sizeof(c.order[0])
	ways := uintptr(len(c.tags))
	if 2*bytes > 25*ways {
		t.Errorf("%d host bytes for %d ways: above 12.5 bytes per way", bytes, ways)
	}
	if 10*bytes > 16<<20 {
		t.Errorf("Table I LLC takes %d host bytes, want at most 1.6 MiB", bytes)
	}
	if n := uintptr(c.ways) * unsafe.Sizeof(c.tags[0]); n != 64 {
		t.Errorf("a 16-way set's tags span %d bytes, want one 64-byte host line", n)
	}
}

// TestFieldOverflowPanicsNamingCache: a tag, arrival cycle or fill core
// that outgrows its packed field panics with the cache's name, and a
// lookup of an unrepresentable block reports it absent.
func TestFieldOverflowPanicsNamingCache(t *testing.T) {
	// One set, so the tag is the block number plus one.
	huge := mem.Addr((uint64(math.MaxUint32) << mem.BlockShift))
	for _, tc := range []struct {
		name  string
		lower Level
		req   Request
	}{
		{"tag", nullLower{}, Request{Addr: huge, Kind: Demand}},
		{"prefetch tag", nullLower{}, Request{Addr: huge, Kind: Prefetch}},
		{"arrival", &fakeLower{latency: arrivalMask}, Request{Addr: 0x40, Kind: Demand}},
		{"fill core", nullLower{}, Request{Addr: 0x40, Core: coreMask + 1, Kind: Demand}},
		{"negative fill core", nullLower{}, Request{Addr: 0x40, Core: -1, Kind: Prefetch}},
	} {
		c := MustNew(Config{Name: "Tiny", SizeBytes: mem.BlockSize, Assoc: 1, HitLatency: 1}, tc.lower)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cache Tiny") {
					t.Errorf("%s: recovered %q, want a panic naming cache Tiny", tc.name, msg)
				}
			}()
			c.Access(10, tc.req)
		}()
	}
	c := MustNew(Config{Name: "Tiny", SizeBytes: mem.BlockSize, Assoc: 1, HitLatency: 1}, nullLower{})
	if c.Contains(huge) {
		t.Error("Contains reports a block whose tag does not fit")
	}
	// The largest block that fits: tag 0xffffffff.
	last := mem.Addr((uint64(math.MaxUint32) - 1) << mem.BlockShift)
	c.Access(0, Request{Addr: last, Kind: Demand})
	if !c.Contains(last) {
		t.Error("the largest representable block is not resident after a miss")
	}
}
