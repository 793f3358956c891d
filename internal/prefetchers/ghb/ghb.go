// Package ghb implements the Global History Buffer PC/DC prefetcher
// (Nesbit & Smith, HPCA'04, the paper's reference [66]): a FIFO of recent
// accesses threaded into per-PC linked chains, from which delta
// correlation is computed on the fly. On each access the two most recent
// deltas of the PC's chain form a context; the chain is searched backwards
// for the same context and the deltas that followed it historically are
// prefetched. Unlike table-based delta prefetchers, the GHB keeps complete
// (if short) history and ages it naturally through FIFO replacement.
package ghb

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises a GHB PC/DC instance.
type Config struct {
	BufferEntries int // global history buffer size (FIFO)
	IndexEntries  int // PC index table entries
	IndexWays     int
	Degree        int // deltas prefetched per match
}

// DefaultConfig is the classic 256-entry GHB with a 256-entry index.
func DefaultConfig() Config {
	return Config{BufferEntries: 256, IndexEntries: 256, IndexWays: 4, Degree: 4}
}

type ghbEntry struct {
	block uint64
	prev  int64 // absolute index of the previous entry with the same PC, -1 if none
}

// GHB is the PC/DC prefetcher.
type GHB struct {
	cfg   Config
	buf   []ghbEntry
	head  int64                  // total entries ever pushed; buf index = head % len
	index *prefetch.Table[int64] // PC -> absolute index of newest entry

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
	// chainBuf and deltaBuf are reusable scratch for the delta search.
	chainBuf []uint64
	deltaBuf []int64
}

// New builds a GHB instance.
func New(cfg Config) (*GHB, error) {
	idx, err := prefetch.NewTable[int64](cfg.IndexEntries, cfg.IndexWays)
	if err != nil {
		return nil, err
	}
	if cfg.BufferEntries <= 0 {
		cfg.BufferEntries = DefaultConfig().BufferEntries
	}
	if cfg.Degree <= 0 {
		cfg.Degree = DefaultConfig().Degree
	}
	return &GHB{cfg: cfg, buf: make([]ghbEntry, cfg.BufferEntries), index: idx}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *GHB {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Factory returns a per-core factory.
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// Name implements prefetch.Prefetcher.
func (g *GHB) Name() string { return "ghb-pcdc" }

// live reports whether absolute index abs is still inside the FIFO window.
func (g *GHB) live(abs int64) bool {
	return abs >= 0 && abs > g.head-int64(len(g.buf)) && abs < g.head
}

func (g *GHB) at(abs int64) *ghbEntry { return &g.buf[abs%int64(len(g.buf))] }

// chain collects the block numbers of the PC's chain, newest first, up to
// max entries.
func (g *GHB) chain(newest int64, max int) []uint64 {
	out := g.chainBuf[:0]
	for abs := newest; g.live(abs) && len(out) < max; {
		e := g.at(abs)
		out = append(out, e.block) //hot:alloc reused buffer grows to steady-state capacity
		abs = e.prev
	}
	g.chainBuf = out
	return out
}

// OnAccess implements prefetch.Prefetcher.
func (g *GHB) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	block := ev.Addr.BlockNumber()
	pc := uint64(ev.PC)

	prev := int64(-1)
	if p, ok := g.index.Lookup(pc, true); ok && g.live(*p) {
		prev = *p
	}
	abs := g.head
	*g.at(abs) = ghbEntry{block: block, prev: prev}
	g.head++
	g.index.Insert(pc, abs)

	// Delta correlation over the chain (newest first).
	blocks := g.chain(abs, 64)
	if len(blocks) < 4 {
		return nil
	}
	deltas := g.deltaBuf[:0] // deltas[i] = blocks[i] - blocks[i+1]
	for i := 0; i+1 < len(blocks); i++ {
		deltas = append(deltas, int64(blocks[i])-int64(blocks[i+1])) //hot:alloc reused buffer grows to steady-state capacity
	}
	g.deltaBuf = deltas
	d1, d2 := deltas[0], deltas[1]
	// Search older history for the same (newer=d1, older=d2) context.
	for i := 2; i+1 < len(deltas); i++ {
		if deltas[i] != d1 || deltas[i+1] != d2 {
			continue
		}
		// Found: the deltas that followed the historical context are
		// deltas[i-1], deltas[i-2], ... (toward the present).
		out := g.addrBuf[:0]
		cur := int64(block)
		for j := i - 1; j >= 0 && len(out) < g.cfg.Degree; j-- {
			cur += deltas[j]
			if cur <= 0 {
				break
			}
			out = append(out, mem.Addr(uint64(cur)<<mem.BlockShift)) //hot:alloc reused buffer grows to steady-state capacity
		}
		g.addrBuf = out
		return out
	}
	return nil
}

// OnEviction implements prefetch.Prefetcher.
func (g *GHB) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher.
func (g *GHB) StorageBytes() int {
	bufBits := len(g.buf) * (26 + 9) // block address + link
	idxBits := g.index.Capacity() * (1 + 4 + 16 + 9)
	return (bufBits + idxBits) / 8
}

var _ prefetch.Prefetcher = (*GHB)(nil)
