// Package stride implements two simple reference prefetchers used for
// sanity baselines and ablations: a classic per-PC stride prefetcher
// (reference prediction table with confidence counters, Baer & Chen style)
// and a next-N-line prefetcher.
package stride

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises the stride prefetcher.
type Config struct {
	TableEntries  int
	TableWays     int
	ConfThreshold int // confidence needed before prefetching
	ConfMax       int
	Degree        int
}

// DefaultConfig returns a 256-entry, degree-2 stride prefetcher.
func DefaultConfig() Config {
	return Config{TableEntries: 256, TableWays: 4, ConfThreshold: 2, ConfMax: 3, Degree: 2}
}

type rptEntry struct {
	lastBlock uint64
	stride    int64
	conf      int
}

// Stride is the per-PC stride prefetcher.
type Stride struct {
	cfg Config
	rpt *prefetch.Table[rptEntry]

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds a stride prefetcher.
func New(cfg Config) (*Stride, error) {
	rpt, err := prefetch.NewTable[rptEntry](cfg.TableEntries, cfg.TableWays)
	if err != nil {
		return nil, err
	}
	return &Stride{cfg: cfg, rpt: rpt}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *Stride {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Factory returns a per-core factory.
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// Name implements prefetch.Prefetcher.
func (s *Stride) Name() string { return "stride" }

// OnAccess implements prefetch.Prefetcher.
func (s *Stride) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	block := ev.Addr.BlockNumber()
	e, ok := s.rpt.Lookup(uint64(ev.PC), true)
	if !ok {
		s.rpt.Insert(uint64(ev.PC), rptEntry{lastBlock: block})
		return nil
	}
	stride := int64(block) - int64(e.lastBlock)
	if stride == e.stride && stride != 0 {
		if e.conf < s.cfg.ConfMax {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = stride
		}
	}
	e.lastBlock = block
	if e.conf < s.cfg.ConfThreshold || e.stride == 0 {
		return nil
	}
	out := s.addrBuf[:0]
	for i := 1; i <= s.cfg.Degree; i++ {
		t := int64(block) + e.stride*int64(i)
		if t <= 0 {
			break
		}
		out = append(out, mem.Addr(uint64(t)<<mem.BlockShift))
	}
	s.addrBuf = out
	return out
}

// OnEviction implements prefetch.Prefetcher.
func (s *Stride) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher.
func (s *Stride) StorageBytes() int {
	return s.rpt.Capacity() * (1 + 4 + 16 + 26 + 8 + 2) / 8
}

var _ prefetch.Prefetcher = (*Stride)(nil)

// NextLine prefetches the next n sequential blocks on every access.
type NextLine struct {
	N int

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// Name implements prefetch.Prefetcher.
func (p *NextLine) Name() string { return "nextline" }

// OnAccess implements prefetch.Prefetcher.
func (p *NextLine) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	n := p.N
	if n <= 0 {
		n = 1
	}
	out := p.addrBuf[:0]
	block := ev.Addr.BlockNumber()
	for i := 1; i <= n; i++ {
		out = append(out, mem.Addr((block+uint64(i))<<mem.BlockShift))
	}
	p.addrBuf = out
	return out
}

// OnEviction implements prefetch.Prefetcher.
func (*NextLine) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher.
func (*NextLine) StorageBytes() int { return 0 }

var _ prefetch.Prefetcher = (*NextLine)(nil)
