// Package sms implements Spatial Memory Streaming (Somogyi et al.,
// ISCA'06), the strongest prior PPH prefetcher and the base of Bingo: page
// footprints recorded during region residency and associated with the
// single PC+Offset event of the trigger access. Its history table is the
// 16 K-entry 16-way structure the paper equips it with (§V-B).
package sms

import (
	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises an SMS instance.
type Config struct {
	RegionBytes    uint64
	FilterEntries  int
	AccumEntries   int
	TrackerWays    int
	HistoryEntries int
	HistoryWays    int
	MaxDegree      int // 0 = whole footprint
}

// DefaultConfig matches the paper's SMS configuration.
func DefaultConfig() Config {
	return Config{
		RegionBytes:    2048,
		FilterEntries:  64,
		AccumEntries:   128,
		TrackerWays:    16,
		HistoryEntries: 16 * 1024,
		HistoryWays:    16,
	}
}

type patternEntry struct {
	fp prefetch.Footprint // anchored at bit 0
}

// SMS is the PC+Offset-indexed spatial prefetcher.
type SMS struct {
	cfg     Config
	rc      mem.RegionConfig
	tracker *prefetch.RegionTracker
	history *prefetch.Table[patternEntry]

	// Triggers and Matches expose match probability for analyses.
	Triggers uint64
	Matches  uint64

	// addrBuf backs the slice OnAccess returns; reused across calls so the
	// per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds an SMS instance.
func New(cfg Config) (*SMS, error) {
	rc, err := mem.NewRegionConfig(cfg.RegionBytes)
	if err != nil {
		return nil, err
	}
	tracker, err := prefetch.NewRegionTracker(rc, cfg.FilterEntries, cfg.AccumEntries, cfg.TrackerWays)
	if err != nil {
		return nil, err
	}
	history, err := prefetch.NewTable[patternEntry](cfg.HistoryEntries, cfg.HistoryWays)
	if err != nil {
		return nil, err
	}
	s := &SMS{cfg: cfg, rc: rc, tracker: tracker, history: history}
	tracker.SetCompleteFunc(s.train)
	return s, nil
}

// train commits a completed residency's footprint under its PC+Offset key.
func (s *SMS) train(ar prefetch.ActiveRegion) {
	anchored := ar.Footprint.Rotate(ar.TriggerOffset, 0, s.rc.Blocks())
	key := prefetch.EventPCOffset.Key(ar.TriggerPC, ar.TriggerAddr, s.rc)
	s.history.Insert(key, patternEntry{fp: anchored})
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *SMS {
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
func (s *SMS) Name() string { return "sms" }

// OnAccess implements prefetch.Prefetcher.
func (s *SMS) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	trigger := s.tracker.Observe(ev.PC, ev.Addr, ev.Hit)
	if trigger == nil {
		return nil
	}
	s.Triggers++
	key := prefetch.EventPCOffset.Key(trigger.PC, trigger.Addr, s.rc)
	entry, ok := s.history.Lookup(key, true)
	if !ok {
		return nil
	}
	s.Matches++
	fp := entry.fp.Rotate(0, trigger.Offset, s.rc.Blocks())
	addrs := fp.AppendAddrs(s.addrBuf[:0], s.rc, trigger.Base, trigger.Offset)
	s.addrBuf = addrs
	if s.cfg.MaxDegree > 0 && len(addrs) > s.cfg.MaxDegree {
		addrs = addrs[:s.cfg.MaxDegree]
	}
	return addrs
}

// OnEviction implements prefetch.Prefetcher.
func (s *SMS) OnEviction(addr mem.Addr) {
	s.tracker.OnEviction(addr)
}

// StorageBytes implements prefetch.Prefetcher.
func (s *SMS) StorageBytes() int {
	per := 1 + 4 + prefetch.EventPCOffset.Bits(s.rc) + s.rc.Blocks()
	bits := s.history.Capacity()*per + s.tracker.StorageBits()
	return bits / 8
}

var _ prefetch.Prefetcher = (*SMS)(nil)
