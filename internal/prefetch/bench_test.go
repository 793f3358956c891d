package prefetch

import (
	"fmt"
	"testing"

	"bingo/internal/mem"
)

func BenchmarkFootprintRotate(b *testing.B) {
	f := Footprint(0x0f0f_3040_1122)
	for i := 0; i < b.N; i++ {
		f = f.Rotate(i%32, (i+7)%32, 32)
	}
	_ = f
}

func BenchmarkFootprintAddrs(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	f := Footprint(0).With(1).With(3).With(9).With(17).With(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Addrs(rc, mem.Addr(uint64(i)*2048), 1)
	}
}

// BenchmarkTableLookup and BenchmarkTableInsertEvict run at the
// RegionTracker's accumulation-table size (128 entries) and at a size that
// leaves the host's L1.
func BenchmarkTableLookup(b *testing.B) {
	for _, entries := range []int{128, 16 * 1024} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			tbl := MustNewTable[uint64](entries, 16)
			for k := uint64(0); k < uint64(entries); k++ {
				tbl.Insert(k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(uint64(i)%uint64(entries), true)
			}
		})
	}
}

func BenchmarkTableInsertEvict(b *testing.B) {
	for _, entries := range []int{128, 1024} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			tbl := MustNewTable[uint64](entries, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Insert(uint64(i), uint64(i))
			}
		})
	}
}

// BenchmarkTableEraseMiss erases keys a full 16-way table does not hold:
// the common case of RegionTracker.OnEviction, which every LLC eviction
// calls on every core (85-98 % of its erases miss on the perfbench
// workloads). It runs at the tracker's filter (64) and accumulation (128)
// sizes, which stay in the host's L1, and at 16 K entries, which do not.
func BenchmarkTableEraseMiss(b *testing.B) {
	for _, entries := range []int{64, 128, 16 * 1024} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			tbl := MustNewTable[ActiveRegion](entries, 16)
			for k := uint64(0); k < uint64(entries); k++ {
				tbl.Insert(k, ActiveRegion{Region: k})
			}
			absent := make([]uint64, 1<<16)
			for i := range absent {
				absent[i] = mem.Mix64(uint64(i)) | 1<<63 // never inserted
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Erase(absent[i&(len(absent)-1)])
			}
		})
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	rt := MustNewRegionTracker(rc, 64, 128, 16)
	rt.SetCompleteFunc(func(ActiveRegion) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Observe(mem.PC(0x400), mem.Addr(uint64(i%1000)*2048+uint64(i%32)*64), false)
	}
}

// BenchmarkTrackerEvictionMiss broadcasts evictions of regions no tracker
// holds to four Bingo-sized trackers (64 filter and 128 accumulation
// entries, 16 ways), each filled with its own regions: what the four
// cores' prefetchers do for most LLC evictions. One op is one eviction
// seen by all four.
func BenchmarkTrackerEvictionMiss(b *testing.B) {
	rc := mem.MustRegionConfig(2048)
	var trackers [4]*RegionTracker
	for c := range trackers {
		rt := MustNewRegionTracker(rc, 64, 128, 16)
		rt.SetCompleteFunc(func(ActiveRegion) {})
		for r := uint64(0); r < 256; r++ {
			region := uint64(c+1)<<40 | r*7919
			rt.Observe(0x400, mem.Addr(region<<rc.Shift()), false)
			if r%3 != 0 {
				rt.Observe(0x404, mem.Addr(region<<rc.Shift()+mem.BlockSize), false) // promote
			}
		}
		trackers[c] = rt
	}
	absent := make([]mem.Addr, 1<<16)
	for i := range absent {
		absent[i] = mem.Addr(mem.Mix64(uint64(i)) | 1<<63) // never observed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := absent[i&(len(absent)-1)]
		for _, rt := range trackers {
			rt.OnEviction(a)
		}
	}
}
