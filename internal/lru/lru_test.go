package lru

import (
	"math/rand"
	"testing"
)

// TestOrderMatchesList drives an Order and an explicit recency list
// (least recent first) with the same random touches at every
// associativity, and compares every rank and the LRU way after each.
func TestOrderMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		o := New(ways)
		list := make([]int, ways)
		for w := range list {
			list[w] = w
		}
		for step := 0; step < 2000; step++ {
			if !o.Valid(ways) {
				t.Fatalf("%d ways, step %d: order %#x not valid", ways, step, uint64(o))
			}
			if o.LRU() != list[0] {
				t.Fatalf("%d ways, step %d: LRU %d, want %d", ways, step, o.LRU(), list[0])
			}
			for r, w := range list {
				if got := o.Rank(w); got != r {
					t.Fatalf("%d ways, step %d: rank of way %d is %d, want %d", ways, step, w, got, r)
				}
			}
			w := rng.Intn(ways)
			if step%7 == 0 {
				w = list[len(list)-1] // touching the most recent way changes nothing
			}
			o = o.Touch(w, ways)
			for r := range list {
				if list[r] == w {
					list = append(append(list[:r:r], list[r+1:]...), w)
					break
				}
			}
		}
	}
}

// TestValidRejectsMalformedOrders checks each way of breaking an order:
// a way ranked twice, a way out of range, and a stray high lane.
func TestValidRejectsMalformedOrders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     Order
		ways  int
		valid bool
	}{
		{"fresh 4-way", New(4), 4, true},
		{"fresh 16-way", New(16), 16, true},
		{"duplicated lane", 0x3200, 4, false},
		{"out-of-range lane", 0x7210, 4, false},
		{"stray high lane", 0x13210, 4, false},
		{"too many ways", New(16), 17, false},
		{"no ways", 0, 0, false},
	} {
		if got := tc.o.Valid(tc.ways); got != tc.valid {
			t.Errorf("%s: Valid(%d) of %#x = %v, want %v", tc.name, tc.ways, uint64(tc.o), got, tc.valid)
		}
	}
}
