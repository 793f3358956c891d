// Package unitfixture seeds address-unit violations for the unitlint
// analyzer: raw block/page-geometry constants on address-typed values,
// next to the typed-helper and mem-constant spellings that are allowed,
// and the small-integer bit-vector math that is out of scope.
package unitfixture

import "bingo/internal/mem"

func rawGeometry(a mem.Addr, raw uint64) []uint64 {
	blk := uint64(a) >> 6 // want `raw block shift`
	page := raw >> 12     // want `raw page shift`
	off := raw & 63       // want `block-offset mask`
	offL := 4095 & raw    // want `page-offset mask`
	al := raw &^ 4095     // want `page-align mask`
	rem := raw % 4096     // want `page modulus`
	return []uint64{blk, page, off, offL, al, rem}
}

func rawLine(line uint64) uint64 {
	return line << 6 // want `raw block shift`
}

func typedHelpers(a mem.Addr) []uint64 {
	return []uint64{
		a.BlockNumber(),
		a.PageNumber(),
		uint64(a.BlockAlign()),
		a.PageOffset(),
	}
}

func viaMemConstants(a mem.Addr, raw uint64) (uint64, mem.Addr) {
	p := uint64(a) >> mem.PageShift           // unit named via mem: allowed
	b := mem.Addr(raw) &^ (mem.BlockSize - 1) // mask built from mem: allowed
	return p, b
}

func bitVectorMath(bits uint64, i int) (int, uint, bool) {
	word := i >> 6      // int index math: out of scope
	bit := uint(i) % 64 // small unsigned: out of scope
	set := bits&(1<<bit) != 0
	return word, bit, set
}

func otherShifts(raw uint64) uint64 {
	return raw>>8 ^ raw<<16 // non-geometry constants: allowed
}

// pagesPerLeaf is 64 pages, not the block size.
const pagesPerLeaf = 64

func namedUnits(a mem.Addr, vpn uint64) []uint64 {
	slot := vpn % pagesPerLeaf // a unit named outside mem, on a plain word: allowed
	blk := a % 64              // want `block modulus`
	named := a % pagesPerLeaf  // want `block modulus`
	conv := uint64(a) % 64     // want `block modulus`
	return []uint64{slot, uint64(blk), uint64(named), conv}
}
