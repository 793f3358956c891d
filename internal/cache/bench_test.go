package cache

import (
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
