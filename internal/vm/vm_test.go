package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bingo/internal/mem"
	"bingo/internal/workloads"
)

func TestTranslatorErrors(t *testing.T) {
	if _, err := NewTranslator(1<<20, 3000, 1); err == nil {
		t.Error("non-pow2 page size should fail")
	}
	if _, err := NewTranslator(1024, 4096, 1); err == nil {
		t.Error("memory smaller than a page should fail")
	}
}

func TestMustTranslatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTranslator should panic on bad config")
		}
	}()
	MustTranslator(0, 4096, 1)
}

func TestPageOffsetPreserved(t *testing.T) {
	tr := MustTranslator(1<<24, 4096, 1)
	va := mem.Addr(0x1234_5678)
	pa := tr.Translate(va)
	if uint64(pa)&4095 != uint64(va)&4095 {
		t.Fatalf("page offset not preserved: va=%v pa=%v", va, pa)
	}
}

func TestStableMapping(t *testing.T) {
	tr := MustTranslator(1<<24, 4096, 1)
	va := mem.Addr(0x8000_0000)
	first := tr.Translate(va)
	for i := 0; i < 10; i++ {
		if got := tr.Translate(va + mem.Addr(i*64)); got>>12 != first>>12 {
			t.Fatalf("same virtual page translated to different frames")
		}
	}
	if tr.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", tr.MappedPages())
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := MustTranslator(1<<24, 4096, 7)
	b := MustTranslator(1<<24, 4096, 7)
	for i := 0; i < 100; i++ {
		va := mem.Addr(i * 4096)
		if a.Translate(va) != b.Translate(va) {
			t.Fatal("same seed should produce identical mappings")
		}
	}
	c := MustTranslator(1<<24, 4096, 8)
	same := 0
	for i := 0; i < 100; i++ {
		va := mem.Addr(i * 4096)
		if a.Translate(va) == c.Translate(va) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("different seeds mapped %d/100 pages identically", same)
	}
}

func TestFramesUnique(t *testing.T) {
	tr := MustTranslator(1<<26, 4096, 3)
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		pa := tr.Translate(mem.Addr(uint64(i) * 4096))
		frame := uint64(pa) >> 12
		if seen[frame] {
			t.Fatalf("frame %d assigned twice", frame)
		}
		seen[frame] = true
	}
}

func TestBeyondPhysicalMemorySynthesises(t *testing.T) {
	tr := MustTranslator(1<<16, 4096, 2) // only 16 frames
	for i := 0; i < 100; i++ {
		tr.Translate(mem.Addr(uint64(i) * 4096)) // must not panic or loop
	}
	if tr.MappedPages() != 100 {
		t.Fatalf("MappedPages = %d", tr.MappedPages())
	}
}

func TestIdentity(t *testing.T) {
	f := func(raw uint64) bool {
		return Identity{}.Translate(mem.Addr(raw)) == mem.Addr(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageSize(t *testing.T) {
	tr := MustTranslator(1<<24, 8192, 1)
	if tr.PageSize() != 8192 {
		t.Fatalf("PageSize = %d", tr.PageSize())
	}
}

// mapTranslator is the reference for Translator's radix page table: the
// per-page Go map and whole-memory free list it replaced, with the same
// chunked, seeded first-touch frame order.
type mapTranslator struct {
	pageShift uint
	pageMask  uint64
	mapping   map[uint64]uint64
	freeList  []uint64
	nextFree  int
	rng       *rand.Rand
	frames    uint64
}

func newMapTranslator(memBytes, pageSize uint64, seed int64) *mapTranslator {
	return &mapTranslator{
		pageShift: mem.Log2(pageSize),
		pageMask:  pageSize - 1,
		mapping:   make(map[uint64]uint64),
		rng:       rand.New(rand.NewSource(seed)),
		frames:    memBytes / pageSize,
	}
}

func (r *mapTranslator) Translate(va mem.Addr) mem.Addr {
	vpn := uint64(va) >> r.pageShift
	frame, ok := r.mapping[vpn]
	if !ok {
		if r.nextFree >= len(r.freeList) {
			base := uint64(len(r.freeList))
			n := uint64(freeListChunk)
			if base < r.frames && base+n > r.frames {
				n = r.frames - base
			}
			chunk := make([]uint64, n)
			for i := range chunk {
				chunk[i] = base + uint64(i)
			}
			r.rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
			r.freeList = append(r.freeList, chunk...)
		}
		frame = r.freeList[r.nextFree]
		r.nextFree++
		r.mapping[vpn] = frame
	}
	return mem.Addr(frame<<r.pageShift | uint64(va)&r.pageMask)
}

// TestTranslatorMatchesMapReference drives the radix translator and the
// map reference with the same streams at the per-core virtual bases the
// workloads use ((core+1)<<40): dense runs that fill whole leaves, sparse
// pages one per leaf, leaves that share a recent-leaf slot in turn, and
// revisits. Every physical address, and so every frame and its order, and
// the mapped-page count must agree, including past the end of a small
// physical memory where frames are synthesised.
func TestTranslatorMatchesMapReference(t *testing.T) {
	for _, memBytes := range []uint64{1 << 20, 1 << 33} {
		tr := MustTranslator(memBytes, 4096, 5)
		ref := newMapTranslator(memBytes, 4096, 5)
		rng := rand.New(rand.NewSource(9))
		var seen []mem.Addr
		check := func(va mem.Addr) {
			t.Helper()
			if got, want := tr.Translate(va), ref.Translate(va); got != want {
				t.Fatalf("mem %d: Translate(%#x) = %#x, reference %#x", memBytes, uint64(va), uint64(got), uint64(want))
			}
			seen = append(seen, va)
		}
		for round := 0; round < 4; round++ {
			for core := uint64(0); core < 4; core++ {
				base := (core + 1) << 40
				page := func(p uint64) mem.Addr { return mem.Addr(base + p<<12 + rng.Uint64()%4096) }
				for p := uint64(0); p < 3*leafPages+5; p++ { // dense, across leaf boundaries
					check(page(uint64(round)*1000 + p))
				}
				for i := 0; i < 300; i++ { // sparse: one page per leaf, spread wide
					check(page(rng.Uint64() % (1 << 28)))
				}
				shared := []uint64{1000} // three leaves (by index in this core's space) sharing a recent slot
				for k := shared[0] + 1; len(shared) < 3; k++ {
					if recentSlot(base>>12/leafPages+k) == recentSlot(base>>12/leafPages+shared[0]) {
						shared = append(shared, k)
					}
				}
				for i := 0; i < 3*leafPages; i++ { // visited in turn
					check(page(shared[i%len(shared)]*leafPages + uint64(i)%leafPages))
				}
			}
			for i := 0; i < 2000; i++ { // revisits, anywhere
				check(seen[rng.Intn(len(seen))] ^ mem.Addr(rng.Uint64()%4096))
			}
		}
		if tr.MappedPages() != len(ref.mapping) {
			t.Fatalf("mem %d: MappedPages = %d, reference %d", memBytes, tr.MappedPages(), len(ref.mapping))
		}
	}
}

// TestChunkSizeGuardsLeafEntries checks the bound that keeps frame+1 in a
// leaf's uint32 entry, at its edge, without mapping 2^32 pages.
func TestChunkSizeGuardsLeafEntries(t *testing.T) {
	cases := []struct {
		base, frames, n uint64
		ok              bool
	}{
		{0, 1 << 20, freeListChunk, true},
		{1<<20 - 10, 1 << 20, 10, true}, // cut short at the end of memory
		{1 << 20, 1 << 20, freeListChunk, true},
		{maxFrames - freeListChunk, 1 << 20, freeListChunk, true}, // last frame is maxFrames-1
		{maxFrames - freeListChunk + 1, 1 << 20, freeListChunk, false},
		{maxFrames - 3, maxFrames - 1, 2, true},
		{maxFrames - 3, 1 << 40, freeListChunk, false},
	}
	for _, c := range cases {
		n, ok := chunkSize(c.base, c.frames)
		if n != c.n || ok != c.ok {
			t.Errorf("chunkSize(%d, %d) = %d, %v; want %d, %v", c.base, c.frames, n, ok, c.n, c.ok)
		}
	}
}

// TestRefillPanicsBeforeLeafOverflow checks that a translation needing a
// frame past maxFrames fails loudly instead of wrapping a leaf entry.
func TestRefillPanicsBeforeLeafOverflow(t *testing.T) {
	tr := MustTranslator(1<<24, 4096, 1)
	tr.issued = maxFrames - 5 // as if 2^32-6 frames were already handed out
	defer func() {
		if recover() == nil {
			t.Fatal("a refill past maxFrames should panic")
		}
	}()
	tr.Translate(0)
}

// BenchmarkTranslate measures translations that hit the page table,
// from precomputed virtual addresses whose pages were all touched before
// timing. "random" draws 16 Ki pages per core uniformly at the four
// cores' workload bases, so consecutive translations rarely share a
// leaf; the workload streams take the first 64 Ki accesses of each of
// four cores, interleaved, so they keep the streams' locality.
func BenchmarkTranslate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := make([]mem.Addr, 1<<16)
	for i := range random {
		core := uint64(i % 4)
		random[i] = mem.Addr((core+1)<<40 + rng.Uint64()%(1<<14)<<12 + rng.Uint64()%4096)
	}
	b.Run("random", func(b *testing.B) { benchTranslate(b, random) })
	for _, name := range []string{"DataServing", "Mix1"} {
		w, _ := workloads.ByName(name)
		srcs := w.Sources(4, 1)
		var vas []mem.Addr
		for len(vas) < 4<<16 {
			for _, src := range srcs {
				r, ok := src.Next()
				if !ok {
					b.Fatalf("%s: stream ended early", name)
				}
				vas = append(vas, r.Addr)
			}
		}
		b.Run(name, func(b *testing.B) { benchTranslate(b, vas) })
	}
}

// benchTranslate translates vas (a power-of-two count) round and round.
func benchTranslate(b *testing.B, vas []mem.Addr) {
	tr := MustTranslator(8<<30, 4096, 1)
	for _, va := range vas {
		tr.Translate(va)
	}
	b.ResetTimer()
	var sink mem.Addr
	for i := 0; i < b.N; i++ {
		sink ^= tr.Translate(vas[i&(len(vas)-1)])
	}
	benchSink = sink
}

var benchSink mem.Addr
