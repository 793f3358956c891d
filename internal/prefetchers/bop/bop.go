// Package bop implements the Best-Offset Prefetcher (Michaud, HPCA'16),
// winner of DPC-2: a round-robin learning phase scores a fixed list of
// candidate offsets by testing, for each observed access X, whether X−d
// was recently accessed (recent-requests table); the best-scoring offset
// is then used to prefetch X+D until the next learning round completes.
//
// Simplification vs. the original: the recent-requests table is filled at
// access time rather than at prefetch-fill time, so the timeliness
// correction of the original is approximated by the RR table's limited
// reach. Degree >1 (the paper's "aggressive" ISO-degree variant) issues
// multiples X+D, X+2D, ….
package bop

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises a BOP instance.
type Config struct {
	RRTableEntries int // recent-requests table (256 in the paper's setup)
	ScoreMax       int // learning stops early when a score reaches this
	RoundMax       int // max learning rounds before selection
	BadScore       int // offsets scoring below this disable prefetching
	PageBytes      uint64
	Degree         int // multiples of the best offset issued per access
}

// DefaultConfig is the paper's evaluated configuration (degree 1).
func DefaultConfig() Config {
	return Config{
		RRTableEntries: 256,
		ScoreMax:       31,
		RoundMax:       100,
		BadScore:       1,
		PageBytes:      4096,
		Degree:         1,
	}
}

// AggressiveConfig is the ISO-degree variant of Figure 10 (degree 32).
func AggressiveConfig() Config {
	c := DefaultConfig()
	c.Degree = 32
	return c
}

// offsetList returns Michaud's candidate offsets: 1..256 whose prime
// factors are all ≤ 5.
func offsetList() []int {
	var out []int
	for n := 1; n <= 256; n++ {
		v := n
		for _, p := range []int{2, 3, 5} {
			for v%p == 0 {
				v /= p
			}
		}
		if v == 1 {
			out = append(out, n)
		}
	}
	return out
}

// BOP is the best-offset prefetcher.
type BOP struct {
	cfg     Config
	rc      mem.RegionConfig
	offsets []int
	scores  []int
	testIdx int
	round   int
	best    int // currently selected offset; 0 disables prefetching
	rr      []uint64
	rrMask  uint64

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds a BOP instance.
func New(cfg Config) (*BOP, error) {
	rc, err := mem.NewRegionConfig(cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	if !mem.IsPow2(cfg.RRTableEntries) {
		cfg.RRTableEntries = DefaultConfig().RRTableEntries
	}
	offs := offsetList()
	return &BOP{
		cfg:     cfg,
		rc:      rc,
		offsets: offs,
		scores:  make([]int, len(offs)),
		best:    1, // start with next-line until the first round completes
		rr:      make([]uint64, cfg.RRTableEntries),
		rrMask:  uint64(cfg.RRTableEntries - 1),
	}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *BOP {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Factory returns a per-core factory.
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// Name implements prefetch.Prefetcher.
func (b *BOP) Name() string {
	if b.cfg.Degree > 1 {
		return "bop-aggr"
	}
	return "bop"
}

// BestOffset returns the currently selected offset (0 = prefetch off).
func (b *BOP) BestOffset() int { return b.best }

func (b *BOP) rrInsert(block uint64) {
	b.rr[mem.Mix64(block)&b.rrMask] = block
}

func (b *BOP) rrContains(block uint64) bool {
	return b.rr[mem.Mix64(block)&b.rrMask] == block
}

// OnAccess implements prefetch.Prefetcher.
func (b *BOP) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	block := ev.Addr.BlockNumber()
	b.learn(block)
	b.rrInsert(block)
	if b.best == 0 {
		return nil
	}
	blocksPerPage := uint64(b.rc.Blocks())
	pageBlockBase := block &^ (blocksPerPage - 1)
	out := b.addrBuf[:0]
	for m := 1; m <= b.cfg.Degree; m++ {
		t := block + uint64(b.best*m)
		if t&^(blocksPerPage-1) != pageBlockBase {
			break // BOP never crosses page boundaries
		}
		out = append(out, mem.Addr(t<<mem.BlockShift)) //hot:alloc reused buffer grows to steady-state capacity
	}
	b.addrBuf = out
	return out
}

// learn tests one candidate offset per access, closing the round when the
// whole list has been tested, and selects a new best offset when a score
// saturates or RoundMax rounds elapse.
func (b *BOP) learn(block uint64) {
	d := b.offsets[b.testIdx]
	if b.rrContains(block - uint64(d)) {
		b.scores[b.testIdx]++
		if b.scores[b.testIdx] >= b.cfg.ScoreMax {
			b.selectBest()
			return
		}
	}
	b.testIdx++
	if b.testIdx == len(b.offsets) {
		b.testIdx = 0
		b.round++
		if b.round >= b.cfg.RoundMax {
			b.selectBest()
		}
	}
}

func (b *BOP) selectBest() {
	bestIdx, bestScore := 0, -1
	for i, s := range b.scores {
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	if bestScore <= b.cfg.BadScore {
		b.best = 0 // nothing predicts well: turn prefetching off
	} else {
		b.best = b.offsets[bestIdx]
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx = 0
	b.round = 0
}

// OnEviction implements prefetch.Prefetcher.
func (b *BOP) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher: the RR table plus the
// score/offset machinery.
func (b *BOP) StorageBytes() int {
	rrBits := len(b.rr) * 12 // hashed partial addresses in hardware
	scoreBits := len(b.offsets) * 5
	return (rrBits + scoreBits + 64) / 8
}

var _ prefetch.Prefetcher = (*BOP)(nil)
