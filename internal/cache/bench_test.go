package cache

import (
	"math/rand"
	"testing"

	"bingo/internal/mem"
)

type nullLower struct{}

func (nullLower) Access(now uint64, req Request) Result {
	return Result{CompleteAt: now + 200, HitLevel: "DRAM"}
}

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{Name: "B", SizeBytes: 8 << 20, Assoc: 16, HitLatency: 15}, nullLower{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkAccessHit(b *testing.B) {
	c := benchCache(b)
	c.Access(0, Request{Addr: 0x1000, Kind: Demand})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i), Request{Addr: 0x1000, Kind: Demand})
	}
}

func BenchmarkAccessMissStream(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i), Request{Addr: mem.Addr(uint64(i) << mem.BlockShift), Kind: Demand})
	}
}

func BenchmarkPrefetchFill(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i), Request{Addr: mem.Addr(uint64(i) << mem.BlockShift), Kind: Prefetch})
	}
}

// benchLLCRandom drives the Table I LLC (8 MB, 16-way) with demand loads
// to blocks drawn uniformly from a working set of ws blocks, read from a
// precomputed list (8 MB) after one warming pass over it.
func benchLLCRandom(b *testing.B, ws uint64) {
	c := benchCache(b)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.Addr, 1<<20)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Uint64() % ws << mem.BlockShift)
	}
	now := uint64(0)
	for _, a := range addrs {
		now++
		c.Access(now, Request{Addr: a, Kind: Demand})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		c.Access(now, Request{Addr: addrs[i&(len(addrs)-1)], Kind: Demand})
	}
}

// BenchmarkLLCRandomHit: a 100 K-block working set (6.1 MB) mostly hits.
func BenchmarkLLCRandomHit(b *testing.B) { benchLLCRandom(b, 100_000) }

// BenchmarkLLCRandomMiss: a 4 M-block working set (256 MB) mostly misses,
// so each access also picks and evicts an LRU victim.
func BenchmarkLLCRandomMiss(b *testing.B) { benchLLCRandom(b, 4<<20) }
