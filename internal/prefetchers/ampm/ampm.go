// Package ampm implements Access Map Pattern Matching (Ishii et al.,
// ICS'09), winner of DPC-1: a table of per-zone access maps (two bits per
// cache block) in which strided patterns are detected by checking, for
// each candidate stride k, whether blocks at -k and -2k from the current
// access were already touched. Per the paper's methodology the map table
// is enlarged to cover the whole LLC capacity.
package ampm

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises an AMPM instance.
type Config struct {
	ZoneBytes   uint64 // access-map granularity
	ZoneEntries int    // number of concurrently tracked zones
	ZoneWays    int
	MaxStride   int // candidate strides tested are ±1..MaxStride
	MaxDegree   int // prefetches issued per access
}

// DefaultConfig sizes the map table to cover an 8 MB LLC with 4 KB zones
// (2048 zones), as the paper's sensitivity analysis prescribes.
func DefaultConfig() Config {
	return Config{
		ZoneBytes:   4096,
		ZoneEntries: 2048,
		ZoneWays:    16,
		MaxStride:   16,
		MaxDegree:   4,
	}
}

type zoneMap struct {
	accessed   prefetch.Footprint
	prefetched prefetch.Footprint
}

// AMPM is the access-map prefetcher.
type AMPM struct {
	cfg   Config
	rc    mem.RegionConfig
	zones *prefetch.Table[zoneMap]

	// addrBuf backs the slice OnAccess returns; reused across calls so
	// the per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds an AMPM instance.
func New(cfg Config) (*AMPM, error) {
	rc, err := mem.NewRegionConfig(cfg.ZoneBytes)
	if err != nil {
		return nil, err
	}
	zones, err := prefetch.NewTable[zoneMap](cfg.ZoneEntries, cfg.ZoneWays)
	if err != nil {
		return nil, err
	}
	return &AMPM{cfg: cfg, rc: rc, zones: zones}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *AMPM {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Factory returns a per-core factory.
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// Name implements prefetch.Prefetcher.
func (a *AMPM) Name() string { return "ampm" }

// OnAccess implements prefetch.Prefetcher: mark the block in its zone map,
// then emit prefetches for every stride whose two predecessors are marked.
func (a *AMPM) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	zone := a.rc.RegionNumber(ev.Addr)
	idx := a.rc.BlockIndex(ev.Addr)
	zm, ok := a.zones.Lookup(zone, true)
	if !ok {
		a.zones.Insert(zone, zoneMap{accessed: prefetch.Footprint(0).With(idx)})
		return nil
	}
	zm.accessed = zm.accessed.With(idx)

	blocks := a.rc.Blocks()
	base := a.rc.RegionBase(ev.Addr)
	out := a.addrBuf[:0]
	for k := 1; k <= a.cfg.MaxStride && len(out) < a.cfg.MaxDegree; k++ {
		out = a.tryStride(zm, base, idx, k, blocks, out)
		if len(out) < a.cfg.MaxDegree {
			out = a.tryStride(zm, base, idx, -k, blocks, out)
		}
	}
	a.addrBuf = out
	return out
}

// tryStride appends a prefetch for idx+k when the pattern (idx-k, idx-2k
// both accessed) holds and the target is unvisited, as in the original
// hardware's candidate test.
func (a *AMPM) tryStride(zm *zoneMap, base mem.Addr, idx, k, blocks int, out []mem.Addr) []mem.Addr {
	t := idx + k
	p1 := idx - k
	p2 := idx - 2*k
	if t < 0 || t >= blocks || p1 < 0 || p1 >= blocks || p2 < 0 || p2 >= blocks {
		return out
	}
	if !zm.accessed.Test(p1) || !zm.accessed.Test(p2) {
		return out
	}
	if zm.accessed.Test(t) || zm.prefetched.Test(t) {
		return out
	}
	zm.prefetched = zm.prefetched.With(t)
	return append(out, a.rc.BlockAddr(base, t)) //hot:alloc reused buffer grows to steady-state capacity
}

// OnEviction implements prefetch.Prefetcher; AMPM keeps no residency
// state keyed to cache contents.
func (a *AMPM) OnEviction(mem.Addr) {}

// StorageBytes implements prefetch.Prefetcher: two bits per block per
// zone plus the zone tag.
func (a *AMPM) StorageBytes() int {
	const tagBits = 26
	per := 1 + 4 + tagBits + 2*a.rc.Blocks()
	return a.zones.Capacity() * per / 8
}

var _ prefetch.Prefetcher = (*AMPM)(nil)
