// Package spp implements the Signature Path Prefetcher (Kim et al.,
// MICRO'16): per-page delta histories compressed into 12-bit signatures, a
// pattern table mapping signatures to candidate deltas with confidence
// counters, and speculative lookahead down the signature path for as long
// as the compounded path confidence stays above a threshold. A prefetch
// filter suppresses duplicates. The confidence threshold is the knob the
// paper's ISO-degree experiment turns (25 % default, 1 % aggressive).
package spp

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

const (
	sigBits  = 12
	sigMask  = (1 << sigBits) - 1
	sigShift = 3
	deltaLow = 0x3f // deltas folded to 7 bits (sign + 6 magnitude)
)

// Config parameterises an SPP instance.
type Config struct {
	PageBytes        uint64
	SignatureEntries int // signature (per-page) table, 256 in the paper
	SignatureWays    int
	PatternEntries   int // pattern table, 512 in the paper
	DeltasPerEntry   int // candidate deltas tracked per signature (4)
	FilterEntries    int // prefetch filter, 1024 in the paper
	Threshold        float64
	MaxLookahead     int // safety bound on path depth
}

// DefaultConfig is the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		PageBytes:        4096,
		SignatureEntries: 256,
		SignatureWays:    8,
		PatternEntries:   512,
		DeltasPerEntry:   4,
		FilterEntries:    1024,
		Threshold:        0.25,
		MaxLookahead:     6,
	}
}

// AggressiveConfig is the ISO-degree variant (confidence threshold 1 %).
func AggressiveConfig() Config {
	c := DefaultConfig()
	c.Threshold = 0.01
	c.MaxLookahead = 64
	return c
}

type stEntry struct {
	lastOffset int
	sig        uint16
}

type deltaSlot struct {
	delta int
	count uint32
}

type ptEntry struct {
	csig   uint32
	deltas []deltaSlot
}

// SPP is the signature-path prefetcher.
type SPP struct {
	cfg     Config
	rc      mem.RegionConfig
	sigs    *prefetch.Table[stEntry]
	pattern []ptEntry
	ptMask  uint32
	filter  []uint64
	fMask   uint64

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds an SPP instance.
func New(cfg Config) (*SPP, error) {
	rc, err := mem.NewRegionConfig(cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	sigs, err := prefetch.NewTable[stEntry](cfg.SignatureEntries, cfg.SignatureWays)
	if err != nil {
		return nil, err
	}
	if !mem.IsPow2(cfg.PatternEntries) {
		cfg.PatternEntries = DefaultConfig().PatternEntries
	}
	if !mem.IsPow2(cfg.FilterEntries) {
		cfg.FilterEntries = DefaultConfig().FilterEntries
	}
	s := &SPP{
		cfg:     cfg,
		rc:      rc,
		sigs:    sigs,
		pattern: make([]ptEntry, cfg.PatternEntries),
		ptMask:  uint32(cfg.PatternEntries - 1),
		filter:  make([]uint64, cfg.FilterEntries),
		fMask:   uint64(cfg.FilterEntries - 1),
		addrBuf: make([]mem.Addr, 0, max(cfg.MaxLookahead, 0)),
	}
	// Every entry's candidate deltas live in one backing array, so
	// training never allocates.
	d := max(cfg.DeltasPerEntry, 0)
	slots := make([]deltaSlot, len(s.pattern)*d)
	for i := range s.pattern {
		s.pattern[i].deltas = slots[i*d : i*d : (i+1)*d]
	}
	return s, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *SPP {
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
func (s *SPP) Name() string {
	if s.cfg.Threshold < 0.25 {
		return "spp-aggr"
	}
	return "spp"
}

func updateSig(sig uint16, delta int) uint16 {
	return uint16((uint(sig)<<sigShift ^ uint(delta&deltaLow)) & sigMask)
}

func (s *SPP) pt(sig uint16) *ptEntry { return &s.pattern[uint32(sig)&s.ptMask] }

// train records that delta followed signature sig.
func (s *SPP) train(sig uint16, delta int) {
	e := s.pt(sig)
	e.csig++
	for i := range e.deltas {
		if e.deltas[i].delta == delta {
			e.deltas[i].count++
			return
		}
	}
	if len(e.deltas) < s.cfg.DeltasPerEntry {
		e.deltas = append(e.deltas, deltaSlot{delta: delta, count: 1})
		return
	}
	// Replace the weakest candidate.
	weak := 0
	for i := range e.deltas {
		if e.deltas[i].count < e.deltas[weak].count {
			weak = i
		}
	}
	e.deltas[weak] = deltaSlot{delta: delta, count: 1}
}

// best returns the highest-confidence delta of sig and its probability.
func (s *SPP) best(sig uint16) (delta int, prob float64, ok bool) {
	e := s.pt(sig)
	if e.csig == 0 || len(e.deltas) == 0 {
		return 0, 0, false
	}
	bi := 0
	for i := range e.deltas {
		if e.deltas[i].count > e.deltas[bi].count {
			bi = i
		}
	}
	return e.deltas[bi].delta, float64(e.deltas[bi].count) / float64(e.csig), true
}

func (s *SPP) filtered(block uint64) bool {
	slot := &s.filter[mem.Mix64(block)&s.fMask]
	if *slot == block {
		return true
	}
	*slot = block
	return false
}

// OnAccess implements prefetch.Prefetcher.
func (s *SPP) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	page := s.rc.RegionNumber(ev.Addr)
	offset := s.rc.BlockIndex(ev.Addr)

	entry, ok := s.sigs.Lookup(page, true)
	if !ok {
		s.sigs.Insert(page, stEntry{lastOffset: offset})
		return nil
	}
	delta := offset - entry.lastOffset
	if delta == 0 {
		return nil
	}
	s.train(entry.sig, delta)
	entry.sig = updateSig(entry.sig, delta)
	entry.lastOffset = offset

	// Lookahead down the signature path.
	out := s.addrBuf[:0]
	sig := entry.sig
	off := offset
	conf := 1.0
	base := s.rc.RegionBase(ev.Addr)
	for depth := 0; depth < s.cfg.MaxLookahead; depth++ {
		d, p, ok := s.best(sig)
		if !ok {
			break
		}
		conf *= p
		if conf < s.cfg.Threshold {
			break
		}
		off += d
		if off < 0 || off >= s.rc.Blocks() {
			break // SPP's GHR page-crossing is out of scope here
		}
		addr := s.rc.BlockAddr(base, off)
		if !s.filtered(addr.BlockNumber()) {
			out = append(out, addr)
		}
		sig = updateSig(sig, d)
	}
	s.addrBuf = out
	return out
}

// OnEviction implements prefetch.Prefetcher.
func (s *SPP) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher.
func (s *SPP) StorageBytes() int {
	stBits := s.sigs.Capacity() * (1 + 4 + 16 + 6 + sigBits)
	ptBits := len(s.pattern) * (8 + s.cfg.DeltasPerEntry*(7+8))
	fBits := len(s.filter) * 12
	return (stBits + ptBits + fBits) / 8
}

var _ prefetch.Prefetcher = (*SPP)(nil)
