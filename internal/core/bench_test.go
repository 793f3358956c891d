package core

import (
	"math/rand"
	"testing"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

func BenchmarkHistoryInsert(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 16*1024, 16, 0.20)
	fp := prefetch.Footprint(0).With(0).With(3).With(7).With(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(mem.PC(0x400+i%64), blockAddr(uint64(i%4096), i%32), i%32, fp)
	}
}

func BenchmarkHistoryLookupLongHit(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 16*1024, 16, 0.20)
	fp := prefetch.Footprint(0).With(0).With(3)
	for r := uint64(0); r < 1024; r++ {
		h.Insert(0x400, blockAddr(r, 0), 0, fp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(0x400, blockAddr(uint64(i%1024), 0), 0)
	}
}

func BenchmarkHistoryLookupShortVote(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 16*1024, 16, 0.20)
	for r := uint64(0); r < 64; r++ {
		h.Insert(0x400, blockAddr(r, 5), 5, prefetch.Footprint(0).With(5).With(6).With(9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A region never trained: forces the short-event voting pass.
		h.Lookup(0x400, blockAddr(uint64(1_000_000+i), 5), 5)
	}
}

// BenchmarkHistoryLookup probes a full Table I history table (16 K
// entries, 16 ways: 512 KiB of entries) with random triggers from 256
// PCs. hit looks up triggers the table holds (long matches); miss looks
// up regions it never saw, so each probe also scans its set for short
// matches and votes.
func BenchmarkHistoryLookup(b *testing.B) {
	type trigger struct {
		pc   mem.PC
		addr mem.Addr
		off  int
	}
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 16*1024, 16, 0.20)
	rng := rand.New(rand.NewSource(1))
	random := func(regionBase uint64) trigger {
		off := rng.Intn(rc.Blocks())
		return trigger{mem.PC(0x400 + 4*rng.Intn(256)), blockAddr(regionBase+rng.Uint64()%(1<<24), off), off}
	}
	held := make([]trigger, 16*1024)
	for i := range held {
		held[i] = random(0)
		fp := prefetch.Footprint(rng.Uint32()).With(held[i].off)
		h.Insert(held[i].pc, held[i].addr, held[i].off, fp)
	}
	var hits, misses []trigger
	for _, tr := range held {
		if _, kind := h.Lookup(tr.pc, tr.addr, tr.off); kind == MatchLong {
			hits = append(hits, tr)
		}
	}
	for len(misses) < len(hits) {
		misses = append(misses, random(1<<30))
	}
	for _, bc := range []struct {
		name     string
		triggers []trigger
	}{{"hit", hits}, {"miss", misses}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := bc.triggers[i%len(bc.triggers)]
				h.Lookup(tr.pc, tr.addr, tr.off)
			}
		})
	}
}

func BenchmarkBingoOnAccess(b *testing.B) {
	pf := MustNew(DefaultConfig())
	// Pre-train a few patterns.
	for r := uint64(0); r < 256; r++ {
		trainRegion(pf, 0x400, r, []int{0, 3, 7})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.OnAccess(access(0x400, blockAddr(uint64(i%100_000)+512, i%32)))
	}
}

func BenchmarkBingoOnEviction(b *testing.B) {
	pf := MustNew(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := uint64(i % 4096)
		pf.OnAccess(access(0x400, blockAddr(r, 0)))
		pf.OnAccess(access(0x404, blockAddr(r, 1)))
		pf.OnEviction(blockAddr(r, 0))
	}
}
