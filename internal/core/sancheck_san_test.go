//go:build san

package core

import (
	"testing"

	"bingo/internal/lru"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/san"
)

// TestSanHistoryOrderFaults seeds the two faults the history's recency
// check looks for into a healthy 4-way set's order word: a way ranked in
// two lanes, and a lane naming a way the set does not have.
func TestSanHistoryOrderFaults(t *testing.T) {
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 1 << 30})
	for _, fault := range []struct {
		name   string
		inject func(o lru.Order) lru.Order
	}{
		{"duplicated lane", func(o lru.Order) lru.Order { return o&^0xf0 | o&0xf<<4 }},
		{"out-of-range lane", func(o lru.Order) lru.Order { return o&^0xf00 | 7<<8 }},
	} {
		h := MustNewHistoryTable(mem.MustRegionConfig(2048), 4, 4, 0.2) // one set
		fp := prefetch.Footprint(0).With(0).With(1)
		for r := uint64(0); r < 6; r++ {
			h.Insert(0x400, blockAddr(r, 0), 0, fp) // fills the set, then evicts
		}
		h.sanCheckOrder(0) // healthy: must not report
		h.order[0] = fault.inject(h.order[0])
		func() {
			defer func() {
				v, ok := recover().(*san.Violation)
				if !ok || v.Invariant != san.BingoResidency {
					t.Errorf("%s: reported %v, want %s", fault.name, v, san.BingoResidency)
				}
			}()
			h.sanCheckOrder(0)
		}()
	}
}
