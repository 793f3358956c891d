//go:build san

package cache

import (
	"testing"

	"bingo/internal/lru"
	"bingo/internal/mem"
	"bingo/internal/san"
)

// TestSanCheckLRUCatchesOrderFaults seeds the two faults SAN-CACHE-LRU
// checks for into the recency order of a healthy 4-way set: a way ranked
// in two lanes, and a lane naming a way the set does not have.
func TestSanCheckLRUCatchesOrderFaults(t *testing.T) {
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 1 << 30})
	for _, fault := range []struct {
		name   string
		inject func(o lru.Order) lru.Order
	}{
		{"duplicated lane", func(o lru.Order) lru.Order { return o&^0xf0 | o&0xf<<4 }},
		{"out-of-range lane", func(o lru.Order) lru.Order { return o&^0xf00 | 7<<8 }},
	} {
		c := MustNew(Config{Name: "T", SizeBytes: 4 * 4 * mem.BlockSize, Assoc: 4, HitLatency: 1}, nullLower{})
		for b := uint64(0); b < 4; b++ {
			c.Access(b, Request{Addr: mem.Addr((4 * b) << mem.BlockShift), Kind: Demand}) // 4 sets: all in set 0
		}
		c.sanCheckLRU(10, 0) // healthy: must not report
		c.order[0] = fault.inject(c.order[0])
		func() {
			defer func() {
				v, ok := recover().(*san.Violation)
				if !ok || v.Invariant != san.CacheLRU {
					t.Errorf("%s: reported %v, want %s", fault.name, v, san.CacheLRU)
				}
			}()
			c.sanCheckLRU(10, 0)
		}()
	}
}
