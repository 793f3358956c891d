//go:build san

package cache

import (
	"testing"

	"bingo/internal/mem"
	"bingo/internal/san"
)

// TestSanCheckLRUCatchesStampFaults seeds the two faults SAN-CACHE-LRU
// checks for into the inline stamps of a healthy set: a stamp ahead of
// the LRU clock, and two ways sharing a stamp.
func TestSanCheckLRUCatchesStampFaults(t *testing.T) {
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 1 << 30})
	for _, fault := range []struct {
		name   string
		inject func(set []line, clock uint64)
	}{
		{"stamp ahead of clock", func(set []line, clock uint64) { set[1].stamp = clock + 1 }},
		{"shared stamp", func(set []line, clock uint64) { set[2].stamp = set[0].stamp }},
	} {
		c := MustNew(Config{Name: "T", SizeBytes: 4 * 4 * mem.BlockSize, Assoc: 4, HitLatency: 1}, nullLower{})
		for b := uint64(0); b < 4; b++ {
			c.Access(b, Request{Addr: mem.Addr((4 * b) << mem.BlockShift), Kind: Demand}) // 4 sets: all in set 0
		}
		c.sanCheckLRU(10, 0) // healthy: must not report
		fault.inject(c.sets[0], c.lruClock)
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
