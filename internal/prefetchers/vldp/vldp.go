// Package vldp implements the Variable Length Delta Prefetcher (Shevgoor
// et al., MICRO'15): a delta history buffer tracks the last few deltas of
// each active page; cascaded delta prediction tables keyed by histories of
// length 1, 2, and 3 predict the next delta (longest match wins); an
// offset prediction table predicts the first delta of a page from its
// first offset. Multi-degree prefetching chains predictions through the
// tables — degree 4 by default, 32 in the ISO-degree aggressive variant.
package vldp

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises a VLDP instance.
type Config struct {
	PageBytes  uint64
	DHBEntries int // delta history buffer (16 in the paper)
	DHBWays    int
	DPTEntries int // per delta-prediction table (64 in the paper)
	DPTWays    int
	OPTEntries int // offset prediction table (64 = blocks per 4 KB page)
	Degree     int
}

// DefaultConfig is the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		PageBytes:  4096,
		DHBEntries: 16,
		DHBWays:    4,
		DPTEntries: 64,
		DPTWays:    4,
		OPTEntries: 64,
		Degree:     4,
	}
}

// AggressiveConfig is the ISO-degree variant (degree 32).
func AggressiveConfig() Config {
	c := DefaultConfig()
	c.Degree = 32
	return c
}

type dhbEntry struct {
	lastOffset  int
	firstOffset int
	sawSecond   bool
	deltas      [3]int // deltas[0] most recent
	numDeltas   int
}

type dptEntry struct {
	next int // predicted next delta
}

// VLDP is the variable-length delta prefetcher.
type VLDP struct {
	cfg  Config
	rc   mem.RegionConfig
	dhb  *prefetch.Table[dhbEntry]
	dpts [3]*prefetch.Table[dptEntry] // index i keyed by history length i+1
	opt  []int                        // first-offset -> first delta (0 = unknown)

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds a VLDP instance.
func New(cfg Config) (*VLDP, error) {
	rc, err := mem.NewRegionConfig(cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	dhb, err := prefetch.NewTable[dhbEntry](cfg.DHBEntries, cfg.DHBWays)
	if err != nil {
		return nil, err
	}
	v := &VLDP{cfg: cfg, rc: rc, dhb: dhb, opt: make([]int, cfg.OPTEntries)}
	for i := range v.dpts {
		t, err := prefetch.NewTable[dptEntry](cfg.DPTEntries, cfg.DPTWays)
		if err != nil {
			return nil, err
		}
		v.dpts[i] = t
	}
	return v, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *VLDP {
	v, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Factory returns a per-core factory.
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// Name implements prefetch.Prefetcher.
func (v *VLDP) Name() string {
	if v.cfg.Degree > 4 {
		return "vldp-aggr"
	}
	return "vldp"
}

// historyKey folds a delta history of length n (h[0] most recent) into a
// table key. Deltas are signed; fold each into 8 bits.
func historyKey(h []int) uint64 {
	k := uint64(len(h))
	for _, d := range h {
		k = k<<8 | uint64(uint8(int8(d)))
	}
	return k
}

// predict returns the next delta using the longest matching history.
func (v *VLDP) predict(h [3]int, n int) (int, bool) {
	for l := min(n, 3); l >= 1; l-- {
		if e, ok := v.dpts[l-1].Lookup(historyKey(h[:l]), true); ok {
			return e.next, true
		}
	}
	return 0, false
}

// OnAccess implements prefetch.Prefetcher.
func (v *VLDP) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	page := v.rc.RegionNumber(ev.Addr)
	offset := v.rc.BlockIndex(ev.Addr)
	base := v.rc.RegionBase(ev.Addr)

	e, ok := v.dhb.Lookup(page, true)
	if !ok {
		v.dhb.Insert(page, dhbEntry{lastOffset: offset, firstOffset: offset})
		// First access to the page: consult the OPT for a first-delta guess.
		if d := v.opt[offset%len(v.opt)]; d != 0 {
			if t := offset + d; t >= 0 && t < v.rc.Blocks() {
				v.addrBuf = append(v.addrBuf[:0], v.rc.BlockAddr(base, t)) //hot:alloc reused buffer grows to steady-state capacity
				return v.addrBuf
			}
		}
		return nil
	}

	delta := offset - e.lastOffset
	if delta == 0 {
		return nil
	}
	if !e.sawSecond {
		e.sawSecond = true
		v.opt[e.firstOffset%len(v.opt)] = delta
	}

	// Train the DPTs: each history length predicts this delta.
	for l := 1; l <= e.numDeltas && l <= 3; l++ {
		v.dpts[l-1].Insert(historyKey(e.deltas[:l]), dptEntry{next: delta})
	}

	// Shift the new delta into the history.
	e.deltas[2], e.deltas[1], e.deltas[0] = e.deltas[1], e.deltas[0], delta
	if e.numDeltas < 3 {
		e.numDeltas++
	}
	e.lastOffset = offset

	// Multi-degree chained prediction: feed each prediction back in.
	out := v.addrBuf[:0]
	h := e.deltas
	n := e.numDeltas
	off := offset
	for i := 0; i < v.cfg.Degree; i++ {
		d, ok := v.predict(h, n)
		if !ok {
			break
		}
		off += d
		if off < 0 || off >= v.rc.Blocks() {
			break
		}
		out = append(out, v.rc.BlockAddr(base, off)) //hot:alloc reused buffer grows to steady-state capacity
		h[2], h[1], h[0] = h[1], h[0], d
		if n < 3 {
			n++
		}
	}
	v.addrBuf = out
	return out
}

// OnEviction implements prefetch.Prefetcher.
func (v *VLDP) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher.
func (v *VLDP) StorageBytes() int {
	dhbBits := v.dhb.Capacity() * (1 + 4 + 26 + 6 + 6 + 3*8)
	dptBits := 0
	for _, t := range v.dpts {
		dptBits += t.Capacity() * (1 + 4 + 24 + 8)
	}
	optBits := len(v.opt) * 8
	return (dhbBits + dptBits + optBits) / 8
}

var _ prefetch.Prefetcher = (*VLDP)(nil)
