// Package lru keeps the recency order of one set of a set-associative
// table in a single word, the way hardware keeps a few recency bits per
// way instead of a timestamp: the simulated caches and Bingo's history
// table rank their ways with it.
package lru

import "math/bits"

// MaxWays is the largest associativity an Order ranks: sixteen 4-bit
// lanes fill a uint64.
const MaxWays = 16

// Lane constants: laneOnes repeats 1 in every 4-bit lane, laneHigh
// selects each lane's top bit.
const (
	laneOnes uint64 = 0x1111111111111111
	laneHigh uint64 = 0x8888888888888888
)

// Order ranks the ways of one set from least to most recently used.
// Lane r (bits 4r..4r+3) holds the way of rank r: lane 0 is the least
// recently used way, lane ways-1 the most recent. Lanes from ways up are
// zero.
type Order uint64

// New returns the order of a fresh ways-way set: way 0 least recent,
// way ways-1 most recent.
func New(ways int) Order {
	var o Order
	for w := ways - 1; w >= 0; w-- {
		o = o<<4 | Order(w)
	}
	return o
}

// LRU returns the least recently used way.
func (o Order) LRU() int { return int(o & 0xf) }

// Rank returns the recency rank of way w, which o must hold: 0 for the
// least recently used way, ways-1 for the most recent.
func (o Order) Rank(w int) int {
	x := uint64(o) ^ uint64(w)*laneOnes
	// The lowest lane of x that is zero is w's lane. The borrow of a
	// zero lane can flag lanes above it, never below, so the lowest flag
	// is exact; the zero lanes from ways up also sit above it.
	return bits.TrailingZeros64((x-laneOnes)&^x&laneHigh) / 4
}

// Touch returns o with way w moved to the most recent rank of a ways-way
// set; the ways ranked above w each move down one rank.
func (o Order) Touch(w, ways int) Order {
	r := 4 * uint(o.Rank(w))
	below := uint64(o) & (1<<r - 1)
	above := uint64(o) >> r >> 4
	return Order(below | above<<r | uint64(w)<<(4*uint(ways-1)))
}

// Valid reports whether o ranks each of ways ways exactly once and its
// lanes from ways up are zero.
func (o Order) Valid(ways int) bool {
	if ways < 1 || ways > MaxWays || uint64(o)>>(4*uint(ways)) != 0 {
		return false
	}
	var seen uint
	for r := 0; r < ways; r++ {
		w := uint(o>>(4*uint(r))) & 0xf
		if int(w) >= ways || seen&(1<<w) != 0 {
			return false
		}
		seen |= 1 << w
	}
	return true
}
