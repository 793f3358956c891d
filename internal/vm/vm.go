// Package vm implements virtual-to-physical address translation using the
// random first-touch policy the paper adopts (§V, citing Tag Tables): the
// first access to a virtual page assigns it a random, previously unused
// physical frame. This deliberately destroys contiguity across OS pages —
// which is why spatial prefetchers must confine themselves to intra-region
// patterns — while keeping runs fully deterministic under a fixed seed.
package vm

import (
	"fmt"
	"math/rand"

	"bingo/internal/mem"
)

// DefaultPageSize is the OS page size used throughout the paper (4 KB).
const DefaultPageSize = 4096

// Translator maps virtual pages to physical frames with random first-touch
// assignment. It is not safe for concurrent use: one System's goroutine
// owns it, so the RNG draw order — and therefore every frame assignment —
// follows the simulated access order exactly.
type Translator struct {
	pageShift uint
	pageMask  uint64
	mapping   map[uint64]uint64 // virtual page -> physical frame
	freeList  []uint64          // shuffled physical frame numbers
	nextFree  int
	rng       *rand.Rand
	frames    uint64
}

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
		mapping:   make(map[uint64]uint64),
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
func (t *Translator) MappedPages() int { return len(t.mapping) }

// Translate maps a virtual address to its physical address, allocating a
// random frame on first touch.
func (t *Translator) Translate(va mem.Addr) mem.Addr {
	vpn := uint64(va) >> t.pageShift
	frame, ok := t.mapping[vpn]
	if !ok {
		frame = t.allocFrame()
		t.mapping[vpn] = frame //hot:alloc first-touch page mapping; the table grows once per page
	}
	return mem.Addr(frame<<t.pageShift | uint64(va)&t.pageMask)
}

// allocFrame returns the next frame from a lazily built shuffled free list.
// The list is materialised in chunks so that huge physical memories do not
// cost a giant up-front allocation.
func (t *Translator) allocFrame() uint64 {
	if t.nextFree >= len(t.freeList) {
		t.refillFreeList()
	}
	f := t.freeList[t.nextFree]
	t.nextFree++
	return f
}

const freeListChunk = 1 << 16

//hot:alloc lazy free-list refill, amortized over 64Ki translations
func (t *Translator) refillFreeList() {
	base := uint64(len(t.freeList))
	n := uint64(freeListChunk)
	if base < t.frames && base+n > t.frames {
		n = t.frames - base
	}
	if n == 0 {
		n = freeListChunk // past physical memory: keep synthesising frames
	}
	chunk := make([]uint64, n)
	for i := range chunk {
		chunk[i] = base + uint64(i)
	}
	t.rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
	t.freeList = append(t.freeList, chunk...)
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
