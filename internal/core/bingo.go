package core

import (
	"fmt"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises a Bingo prefetcher instance. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// RegionBytes is the spatial region ("page") size. The authors'
	// configuration uses 2 KB regions of 32 blocks.
	RegionBytes uint64
	// FilterEntries / AccumEntries size the residency tracker.
	FilterEntries int
	AccumEntries  int
	TrackerWays   int
	// HistoryEntries / HistoryWays size the unified history table
	// (16 K × 16-way in the paper's chosen configuration, Figure 6).
	HistoryEntries int
	HistoryWays    int
	// VoteThreshold is the fraction of short-event matches whose
	// footprints must contain a block to prefetch it (0.20 in §IV).
	VoteThreshold float64
	// MaxDegree caps prefetches per trigger; 0 means the whole footprint.
	MaxDegree int
	// MostRecent selects the rejected multi-match heuristic (§IV): use
	// the most recent short match instead of voting. Ablation only.
	MostRecent bool
	// LongTagBits / RecencyBits size the hardware budget accounting.
	LongTagBits int
	RecencyBits int
	// TruncateTags stores long tags folded to LongTagBits instead of
	// full-width, modelling the aliasing a real partial-tagged table
	// admits. Ablation knob; off by default.
	TruncateTags bool
}

// DefaultConfig returns the paper's evaluated configuration (≈119 KB).
func DefaultConfig() Config {
	return Config{
		RegionBytes:    2048,
		FilterEntries:  64,
		AccumEntries:   128,
		TrackerWays:    16,
		HistoryEntries: 16 * 1024,
		HistoryWays:    16,
		VoteThreshold:  0.20,
		MaxDegree:      0,
		LongTagBits:    23,
		RecencyBits:    4,
	}
}

// Validate reports every configuration error New would, without
// allocating the tracker or the history table.
func (c Config) Validate() error {
	rc, err := mem.NewRegionConfig(c.RegionBytes)
	if err != nil {
		return err
	}
	if rc.Blocks() > 64 {
		return fmt.Errorf("core: regions of %d blocks exceed the 64-block footprint limit", rc.Blocks())
	}
	if err := prefetch.CheckTrackerGeometry(c.FilterEntries, c.AccumEntries, c.TrackerWays); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	_, err = historySets(c.HistoryEntries, c.HistoryWays, c.VoteThreshold)
	return err
}

// Stats counts Bingo's high-level activity.
type Stats struct {
	Triggers     uint64 // region-opening accesses (history consulted)
	LongMatches  uint64
	ShortMatches uint64
	NoMatches    uint64
	Trained      uint64 // footprints committed to history
	Issued       uint64 // prefetch addresses emitted
}

// Bingo is the paper's spatial data prefetcher: a filter/accumulation
// residency tracker feeding a single unified history table that is looked
// up first with PC+Address and then with PC+Offset.
type Bingo struct {
	cfg     Config
	rc      mem.RegionConfig
	tracker *prefetch.RegionTracker
	history *HistoryTable
	stats   Stats

	// addrBuf backs the slice OnAccess returns; reused across calls so the
	// per-access hot path stays allocation-free.
	addrBuf []mem.Addr
}

// New builds a Bingo instance.
func New(cfg Config) (*Bingo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rc := mem.MustRegionConfig(cfg.RegionBytes)
	tracker, err := prefetch.NewRegionTracker(rc, cfg.FilterEntries, cfg.AccumEntries, cfg.TrackerWays)
	if err != nil {
		return nil, err
	}
	history, err := NewHistoryTable(rc, cfg.HistoryEntries, cfg.HistoryWays, cfg.VoteThreshold)
	if err != nil {
		return nil, err
	}
	history.SetMostRecentPolicy(cfg.MostRecent)
	if cfg.TruncateTags {
		history.SetTagTruncation(uint(cfg.LongTagBits))
	}
	b := &Bingo{cfg: cfg, rc: rc, tracker: tracker, history: history, addrBuf: make([]mem.Addr, 0, rc.Blocks())}
	tracker.SetCompleteFunc(b.train)
	return b, nil
}

// train commits a completed residency's footprint to the history table.
func (b *Bingo) train(ar prefetch.ActiveRegion) {
	b.stats.Trained++
	b.history.Insert(ar.TriggerPC, ar.TriggerAddr, ar.TriggerOffset, ar.Footprint)
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *Bingo {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Factory returns a per-core factory for the given configuration (the
// paper's choice: private prefetchers, no metadata sharing between cores).
func Factory(cfg Config) prefetch.Factory {
	return func(int) prefetch.Prefetcher { return MustNew(cfg) }
}

// SharedFactory returns a factory handing the same Bingo instance to
// every core — the metadata-sharing alternative the paper explicitly
// rejects (§V-B, citing SHIFT-style sharing). One history table serves
// all cores: a quarter of the storage, but cross-core interference in the
// tracker and history. Exposed for the sharing ablation.
func SharedFactory(cfg Config) prefetch.Factory {
	shared := MustNew(cfg)
	return func(int) prefetch.Prefetcher { return shared }
}

// Name implements prefetch.Prefetcher.
func (b *Bingo) Name() string { return "bingo" }

// Stats returns a snapshot of the prefetcher counters.
func (b *Bingo) Stats() Stats { return b.stats }

// History exposes the unified table (for experiments and tests).
func (b *Bingo) History() *HistoryTable { return b.history }

// OnAccess implements prefetch.Prefetcher. Non-trigger accesses only
// extend the tracked footprint; trigger accesses consult the history and
// expand the best-matching footprint into prefetch addresses.
func (b *Bingo) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	trigger := b.tracker.Observe(ev.PC, ev.Addr, ev.Hit)
	if trigger == nil {
		return nil
	}
	b.stats.Triggers++
	fp, kind := b.history.Lookup(trigger.PC, trigger.Addr, trigger.Offset)
	switch kind {
	case MatchLong:
		b.stats.LongMatches++
	case MatchShort:
		b.stats.ShortMatches++
	default:
		b.stats.NoMatches++
		return nil
	}
	addrs := fp.AppendAddrs(b.addrBuf[:0], b.rc, trigger.Base, trigger.Offset)
	b.addrBuf = addrs
	if b.cfg.MaxDegree > 0 && len(addrs) > b.cfg.MaxDegree {
		addrs = addrs[:b.cfg.MaxDegree]
	}
	b.stats.Issued += uint64(len(addrs))
	return addrs
}

// OnEviction implements prefetch.Prefetcher: the eviction of any block of
// a tracked region ends its residency and commits the footprint (via the
// tracker's completion callback).
func (b *Bingo) OnEviction(addr mem.Addr) {
	b.tracker.OnEviction(addr)
}

// StorageBytes implements prefetch.Prefetcher; the default configuration
// reports ≈120 KB, matching the paper's 119 KB budget.
func (b *Bingo) StorageBytes() int {
	bits := b.history.storageBits(b.cfg.LongTagBits, b.cfg.RecencyBits) + b.tracker.StorageBits()
	return bits / 8
}

var _ prefetch.Prefetcher = (*Bingo)(nil)
