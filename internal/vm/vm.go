// Package vm implements virtual-to-physical address translation using the
// random first-touch policy the paper adopts (§V, citing Tag Tables): the
// first access to a virtual page assigns it a random, previously unused
// physical frame. This deliberately destroys contiguity across OS pages —
// which is why spatial prefetchers must confine themselves to intra-region
// patterns — while keeping runs fully deterministic under a fixed seed.
package vm

import (
	"fmt"
	"math"
	"math/rand"

	"bingo/internal/mem"
)

// DefaultPageSize is the OS page size used throughout the paper (4 KB).
const DefaultPageSize = 4096

// Translator maps virtual pages to physical frames with random first-touch
// assignment. It is not safe for concurrent use: one System's goroutine
// owns it, so the RNG draw order — and therefore every frame assignment —
// follows the simulated access order exactly.
//
// The page table is a two-level radix tree: a map from the virtual page
// number's high bits to a leaf covering leafPages consecutive pages. A
// small direct-mapped cache of recently used leaves sits in front of the
// map, so a translation that stays near recent pages reads one leaf entry
// and no map bucket.
type Translator struct {
	pageShift uint
	pageMask  uint64
	leaves    map[uint64]*leaf // vpn/leafPages -> leaf
	recent    [recentLeaves]recentLeaf
	mapped    int      // pages touched so far
	freeList  []uint32 // the current chunk of shuffled frame numbers
	nextFree  int      // next unused index into freeList
	issued    uint64   // frames put into chunks so far
	rng       *rand.Rand
	frames    uint64
}

const (
	leafPages    = 64
	recentBits   = 8
	recentLeaves = 1 << recentBits
)

// recentSlot returns the recent-leaf slot of leaf key: the top bits of a
// Fibonacci hash. The cores' address spaces differ only in high bits
// ((core+1)<<40 in the workloads), so slots taken from the key's low
// bits would put the cores' leaves at equal offsets in one slot.
func recentSlot(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - recentBits) }

// leaf holds frame+1 for each of leafPages consecutive virtual pages;
// 0 marks a page not yet touched.
type leaf [leafPages]uint32

// recentLeaf is one slot of the recent-leaf cache (lf == nil: empty).
type recentLeaf struct {
	key uint64
	lf  *leaf
}

// maxFrames is how many frames a leaf entry can name: frame+1 must fit
// in a uint32.
const maxFrames = math.MaxUint32

// NewTranslator creates a translator over a physical memory of memBytes
// using pageSize-byte pages (both powers of two). Frames are handed out in
// a seeded random order; when physical memory is exhausted additional
// frames are synthesised past the end (the simulator never swaps).
func NewTranslator(memBytes, pageSize uint64, seed int64) (*Translator, error) {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("vm: page size %d must be a power of two", pageSize)
	}
	if memBytes < pageSize {
		return nil, fmt.Errorf("vm: memory size %d smaller than one page", memBytes)
	}
	t := &Translator{
		pageShift: mem.Log2(pageSize),
		pageMask:  pageSize - 1,
		leaves:    make(map[uint64]*leaf),
		rng:       rand.New(rand.NewSource(seed)),
		frames:    memBytes / pageSize,
	}
	return t, nil
}

// MustTranslator is NewTranslator that panics on error.
func MustTranslator(memBytes, pageSize uint64, seed int64) *Translator {
	t, err := NewTranslator(memBytes, pageSize, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// PageSize returns the page size in bytes.
func (t *Translator) PageSize() uint64 { return t.pageMask + 1 }

// MappedPages returns how many virtual pages have been touched so far.
func (t *Translator) MappedPages() int { return t.mapped }

// Translate maps a virtual address to its physical address, allocating a
// random frame on first touch.
func (t *Translator) Translate(va mem.Addr) mem.Addr {
	vpn := uint64(va) >> t.pageShift
	key, slot := vpn/leafPages, vpn%leafPages
	r := &t.recent[recentSlot(key)]
	if r.lf == nil || r.key != key {
		lf := t.leaves[key]
		if lf == nil {
			lf = t.newLeaf(key)
		}
		r.key, r.lf = key, lf
	}
	e := &r.lf[slot]
	if *e == 0 {
		*e = uint32(t.allocFrame() + 1)
		t.mapped++
	}
	return mem.Addr(uint64(*e-1)<<t.pageShift | uint64(va)&t.pageMask)
}

// newLeaf adds the empty leaf for key to the page table.
//
//hot:alloc first touch of a leafPages-page span; the table grows once per leaf
func (t *Translator) newLeaf(key uint64) *leaf {
	lf := new(leaf)
	t.leaves[key] = lf
	return lf
}

// allocFrame returns the next frame from a lazily built shuffled free list.
// The list is materialised one chunk at a time so that huge physical
// memories do not cost a giant up-front allocation.
func (t *Translator) allocFrame() uint64 {
	if t.nextFree >= len(t.freeList) {
		t.refillFreeList()
	}
	f := t.freeList[t.nextFree]
	t.nextFree++
	return uint64(f)
}

const freeListChunk = 1 << 16

// refillFreeList replaces the used-up chunk with the next frames, shuffled.
//
//hot:alloc lazy free-list refill, amortized over 64Ki translations
func (t *Translator) refillFreeList() {
	base := t.issued
	n, ok := chunkSize(base, t.frames)
	if !ok {
		panic(fmt.Sprintf("vm: frame %d does not fit a page-table entry (at most %d frames)", base+n-1, uint64(maxFrames)))
	}
	chunk := t.freeList
	if uint64(cap(chunk)) < n {
		chunk = make([]uint32, n) // the first chunk; later ones reuse it
	}
	chunk = chunk[:n]
	for i := range chunk {
		chunk[i] = uint32(base + uint64(i)) // chunkSize keeps every frame below maxFrames
	}
	t.rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
	t.freeList, t.nextFree, t.issued = chunk, 0, base+n
}

// chunkSize returns how many frames the free-list refill starting at frame
// base hands out: a chunk, cut short at the end of physical memory. ok is
// false when the chunk would hold a frame a leaf entry cannot name.
func chunkSize(base, frames uint64) (n uint64, ok bool) {
	n = freeListChunk
	if base < frames && base+n > frames {
		n = frames - base
	}
	return n, base+n <= maxFrames
}

// Identity is a Translator-compatible pass-through used by tests and by
// functional (timing-free) analyses where translation is irrelevant.
type Identity struct{}

// Translate returns va unchanged.
func (Identity) Translate(va mem.Addr) mem.Addr { return va }

// Mapper is the minimal translation interface consumed by the system.
type Mapper interface {
	Translate(va mem.Addr) mem.Addr
}

var (
	_ Mapper = (*Translator)(nil)
	_ Mapper = Identity{}
)
