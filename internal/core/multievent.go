package core

import (
	"fmt"
	"strings"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// MultiEvent is the TAGE-like cascaded-table spatial prefetcher of the
// paper's §III (Figure 1-b): one history table per event kind, every
// completed footprint inserted into all tables, lookups cascading from the
// longest event to the shortest. With a single event it degenerates to the
// classic single-event PPH prefetchers of Figure 2; with two events and
// redundancy probing enabled it produces Figure 4's measurements.
type MultiEvent struct {
	rc      mem.RegionConfig
	events  []prefetch.EventKind // longest first
	tables  []*prefetch.Table[patternEntry]
	tracker *prefetch.RegionTracker
	maxDeg  int

	// addrBuf backs the slice OnAccess returns; reused across calls so the
	// per-access hot path stays allocation-free.
	addrBuf []mem.Addr

	// Per-kind lookup statistics (parallel to events).
	Consulted []uint64 // table i was consulted
	Matched   []uint64 // table i supplied the prediction

	// Redundancy probing (Figure 4): for every prediction opportunity the
	// two longest tables are checked independently.
	ProbeRedundancy bool
	BothHit         uint64
	Identical       uint64
	Lookups         uint64
	Predicted       uint64
}

type patternEntry struct {
	fp     prefetch.Footprint // anchored at bit 0
	offset int
}

// MultiEventConfig parameterises the cascade.
type MultiEventConfig struct {
	RegionBytes    uint64
	Events         []prefetch.EventKind // longest first; nil = all five
	TableEntries   int                  // per table
	TableWays      int
	FilterEntries  int
	AccumEntries   int
	TrackerWays    int
	MaxDegree      int
	ProbeRedundant bool
}

// DefaultMultiEventConfig mirrors the Bingo defaults with n cascaded
// events (1 ≤ n ≤ 5, longest first).
func DefaultMultiEventConfig(n int) MultiEventConfig {
	all := prefetch.AllEvents()
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	return MultiEventConfig{
		RegionBytes:   2048,
		Events:        all[:n],
		TableEntries:  16 * 1024,
		TableWays:     16,
		FilterEntries: 64,
		AccumEntries:  128,
		TrackerWays:   16,
	}
}

// NewMultiEvent builds the cascade.
func NewMultiEvent(cfg MultiEventConfig) (*MultiEvent, error) {
	rc, err := mem.NewRegionConfig(cfg.RegionBytes)
	if err != nil {
		return nil, err
	}
	if len(cfg.Events) == 0 {
		cfg.Events = prefetch.AllEvents()
	}
	tracker, err := prefetch.NewRegionTracker(rc, cfg.FilterEntries, cfg.AccumEntries, cfg.TrackerWays)
	if err != nil {
		return nil, err
	}
	m := &MultiEvent{
		rc:              rc,
		events:          cfg.Events,
		tracker:         tracker,
		maxDeg:          cfg.MaxDegree,
		Consulted:       make([]uint64, len(cfg.Events)),
		Matched:         make([]uint64, len(cfg.Events)),
		ProbeRedundancy: cfg.ProbeRedundant,
	}
	for range cfg.Events {
		t, err := prefetch.NewTable[patternEntry](cfg.TableEntries, cfg.TableWays)
		if err != nil {
			return nil, err
		}
		m.tables = append(m.tables, t)
	}
	tracker.SetCompleteFunc(m.train)
	return m, nil
}

// train inserts a completed footprint into every cascade table, each under
// its own event key (Figure 1-b's storage discipline, whose redundancy
// Bingo later eliminates).
func (m *MultiEvent) train(ar prefetch.ActiveRegion) {
	anchored := ar.Footprint.Rotate(ar.TriggerOffset, 0, m.rc.Blocks())
	for i, kind := range m.events {
		key := kind.Key(ar.TriggerPC, ar.TriggerAddr, m.rc)
		m.tables[i].Insert(key, patternEntry{fp: anchored, offset: ar.TriggerOffset})
	}
}

// MustNewMultiEvent panics on configuration error.
func MustNewMultiEvent(cfg MultiEventConfig) *MultiEvent {
	m, err := NewMultiEvent(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// MultiEventFactory returns a per-core factory.
func MultiEventFactory(cfg MultiEventConfig) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNewMultiEvent(cfg) }
}

// Name implements prefetch.Prefetcher.
func (m *MultiEvent) Name() string {
	names := make([]string, len(m.events))
	for i, e := range m.events {
		names[i] = e.String()
	}
	return fmt.Sprintf("multievent[%s]", strings.Join(names, ","))
}

// Events returns the cascade's event kinds, longest first.
func (m *MultiEvent) Events() []prefetch.EventKind { return m.events }

// MatchProbability returns the fraction of triggers for which any table
// supplied a prediction.
func (m *MultiEvent) MatchProbability() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.Predicted) / float64(m.Lookups)
}

// Redundancy returns the fraction of dual-hit lookups whose long and short
// predictions were identical (Figure 4's metric).
func (m *MultiEvent) Redundancy() float64 {
	if m.BothHit == 0 {
		return 0
	}
	return float64(m.Identical) / float64(m.BothHit)
}

// OnAccess implements prefetch.Prefetcher.
func (m *MultiEvent) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	trigger := m.tracker.Observe(ev.PC, ev.Addr, ev.Hit)
	if trigger == nil {
		return nil
	}
	m.Lookups++

	if m.ProbeRedundancy && len(m.events) >= 2 {
		m.probe(trigger)
	}

	for i, kind := range m.events {
		m.Consulted[i]++
		key := kind.Key(trigger.PC, trigger.Addr, m.rc)
		entry, ok := m.tables[i].Lookup(key, true)
		if !ok {
			continue
		}
		m.Matched[i]++
		m.Predicted++
		fp := entry.fp.Rotate(0, trigger.Offset, m.rc.Blocks())
		addrs := fp.AppendAddrs(m.addrBuf[:0], m.rc, trigger.Base, trigger.Offset)
		m.addrBuf = addrs
		if m.maxDeg > 0 && len(addrs) > m.maxDeg {
			addrs = addrs[:m.maxDeg]
		}
		return addrs
	}
	return nil
}

// probe checks the two longest tables independently and records whether
// both offered the same prediction.
func (m *MultiEvent) probe(trigger *prefetch.Trigger) {
	longEntry, okL := m.tables[0].Lookup(m.events[0].Key(trigger.PC, trigger.Addr, m.rc), false)
	shortEntry, okS := m.tables[1].Lookup(m.events[1].Key(trigger.PC, trigger.Addr, m.rc), false)
	if !okL || !okS {
		return
	}
	m.BothHit++
	if longEntry.fp == shortEntry.fp {
		m.Identical++
	}
}

// OnEviction implements prefetch.Prefetcher: residency end is handled by
// the tracker's completion callback.
func (m *MultiEvent) OnEviction(addr mem.Addr) {
	m.tracker.OnEviction(addr)
}

// StorageBytes implements prefetch.Prefetcher: the naive cascade pays for
// every table (this is exactly the overhead Figure 1-c removes).
func (m *MultiEvent) StorageBytes() int {
	bits := m.tracker.StorageBits()
	for i, kind := range m.events {
		per := 1 + 4 + kind.Bits(m.rc) + m.rc.Blocks()
		bits += m.tables[i].Capacity() * per
	}
	return bits / 8
}

var _ prefetch.Prefetcher = (*MultiEvent)(nil)
