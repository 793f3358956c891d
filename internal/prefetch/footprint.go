package prefetch

import (
	"math/bits"
	"strings"

	"bingo/internal/mem"
)

// Footprint is a bit vector over the blocks of a region: bit i set means
// block i of the region was (or is predicted to be) used during the
// region's residency. Regions of up to 64 blocks (4 KB at 64 B blocks)
// are supported, which covers every configuration in the paper.
type Footprint uint64

// With returns f with block i marked used.
func (f Footprint) With(i int) Footprint { return f | 1<<uint(i) }

// Test reports whether block i is marked.
func (f Footprint) Test(i int) bool { return f&(1<<uint(i)) != 0 }

// Count returns the number of marked blocks.
func (f Footprint) Count() int { return bits.OnesCount64(uint64(f)) }

// Blocks returns the indices of marked blocks in ascending order.
func (f Footprint) Blocks() []int {
	out := make([]int, 0, f.Count())
	for v := uint64(f); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// Addrs expands the footprint into block addresses within the region
// containing base, excluding block excludeIdx (pass -1 to keep all).
func (f Footprint) Addrs(rc mem.RegionConfig, base mem.Addr, excludeIdx int) []mem.Addr {
	return f.AppendAddrs(make([]mem.Addr, 0, f.Count()), rc, base, excludeIdx)
}

// AppendAddrs is Addrs appending into dst, for callers that reuse a
// buffer across accesses on the issue hot path. Bits are iterated in
// place, so the only allocation is dst's own growth.
func (f Footprint) AppendAddrs(dst []mem.Addr, rc mem.RegionConfig, base mem.Addr, excludeIdx int) []mem.Addr {
	sanCheckFootprint(f, rc.Blocks())
	for v := uint64(f); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		if i == excludeIdx {
			continue
		}
		dst = append(dst, rc.BlockAddr(base, i))
	}
	return dst
}

// String renders the footprint as a bit string, LSB (block 0) first, over
// n blocks.
func (f Footprint) String() string { return f.StringN(64) }

// StringN renders the first n bits.
func (f Footprint) StringN(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if f.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Rotate returns the footprint rotated so that the pattern anchored at
// trigger offset `from` is re-anchored at offset `to` in an n-block
// region. Spatial prefetchers that generalise a pattern learned at one
// offset to a trigger at another offset use this (SMS-style anchoring).
func (f Footprint) Rotate(from, to, n int) Footprint {
	if from == to || n <= 0 {
		return f
	}
	shift := ((to-from)%n + n) % n
	mask := uint64(1)<<uint(n) - 1
	if n == 64 {
		mask = ^uint64(0)
	}
	v := uint64(f) & mask
	rot := (v<<uint(shift) | v>>uint(n-shift)) & mask
	return Footprint(rot)
}
