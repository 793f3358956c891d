// Package core implements the paper's contribution: the Bingo spatial data
// prefetcher (§IV), its single unified history table indexed by the short
// event and tagged with the long event, and the instrumented single-event
// and multi-event (TAGE-like) variants used by the motivation experiments
// of §III (Figures 2–4).
package core

import (
	"fmt"
	"math/bits"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// MatchKind reports which event matched during a history lookup.
type MatchKind int

const (
	// MatchNone means neither event found an entry: no prefetch.
	MatchNone MatchKind = iota
	// MatchLong means the PC+Address tag matched: highest accuracy.
	MatchLong
	// MatchShort means only the PC+Offset bits matched (one or more
	// entries); the footprint is the vote across all short matches.
	MatchShort
)

// String names the match kind.
func (m MatchKind) String() string {
	switch m {
	case MatchLong:
		return "long"
	case MatchShort:
		return "short"
	default:
		return "none"
	}
}

// HistoryStats counts lookup outcomes of the unified table.
type HistoryStats struct {
	Lookups    uint64
	LongHits   uint64
	ShortHits  uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
}

// MatchProbability is the fraction of lookups that produced a prediction.
func (s HistoryStats) MatchProbability() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.LongHits+s.ShortHits) / float64(s.Lookups)
}

// historyEntry is one way of the unified table. The long tag is the
// PC+Address event; the short tag (PC+Offset) is physically a subset of
// the long event's bits in hardware — we store it explicitly for clarity.
type historyEntry struct {
	valid     bool
	longTag   uint64
	shortTag  uint64
	lru       uint64
	footprint prefetch.Footprint // anchored: trigger block rotated to bit 0
	offset    int                // trigger offset the footprint was learned at
}

// HistoryTable is Bingo's single unified history table (Figure 5): indexed
// with a hash of the shortest event (PC+Offset) and tagged with the
// longest (PC+Address), so one physical structure serves both lookup
// events and redundant storage is eliminated by construction.
type HistoryTable struct {
	//ckpt:skip construction parameter, re-supplied by NewHistoryTable; LoadState validates against it
	rc mem.RegionConfig
	//ckpt:skip derived geometry, recomputed by NewHistoryTable; LoadState validates against it
	ways int
	//ckpt:skip derived geometry, recomputed by NewHistoryTable; LoadState validates against it
	setMask uint64
	sets    []historyEntry
	clock   uint64
	//ckpt:skip tuning knob set at construction, not mutated by simulation
	vote float64
	//ckpt:skip tuning knob set at construction, not mutated by simulation
	recent bool // use the most-recent short match instead of voting
	//ckpt:skip tuning knob set at construction, not mutated by simulation
	longBits uint // 0 = full-width tags; else hardware-style truncation
	stats    HistoryStats
	//ckpt:skip checker scratch state, not simulation state; rebuilt as events replay
	san sanState // runtime invariant sanitizer (empty without -tags=san)
}

// SetTagTruncation folds stored tags down to the given widths, modelling
// the partial tags a hardware table actually stores (the paper's 119 KB
// budget implies ≈23-bit long tags). Truncation admits aliasing: two
// different events can masquerade as the same entry. 0 disables
// truncation (the simulation default). Call before inserting anything.
func (h *HistoryTable) SetTagTruncation(longBits uint) { h.longBits = longBits }

// foldTag applies the configured truncation to a tag.
func (h *HistoryTable) foldTag(tag uint64) uint64 {
	if h.longBits == 0 {
		return tag
	}
	return mem.FoldBits(tag, h.longBits)
}

// SetMostRecentPolicy switches multi-match resolution from the paper's
// ≥20%-vote heuristic to "use the most recent matching entry" — one of
// the alternatives §IV evaluates and rejects. Exposed for the ablation
// benchmarks.
func (h *HistoryTable) SetMostRecentPolicy(on bool) { h.recent = on }

// NewHistoryTable builds a table with numEntries total entries and the
// given associativity. voteThreshold is the fraction of short-event
// matches whose footprints must contain a block for it to be prefetched
// (0.20 in the paper).
func NewHistoryTable(rc mem.RegionConfig, numEntries, ways int, voteThreshold float64) (*HistoryTable, error) {
	if ways <= 0 || numEntries <= 0 || numEntries%ways != 0 {
		return nil, fmt.Errorf("core: history entries %d not divisible into %d ways", numEntries, ways)
	}
	sets := numEntries / ways
	if !mem.IsPow2(sets) {
		return nil, fmt.Errorf("core: history set count %d must be a power of two", sets)
	}
	if !(voteThreshold > 0 && voteThreshold <= 1) { // also rejects NaN
		return nil, fmt.Errorf("core: vote threshold %v must be in (0,1]", voteThreshold)
	}
	return &HistoryTable{
		rc:      rc,
		ways:    ways,
		setMask: uint64(sets - 1),
		sets:    make([]historyEntry, numEntries),
		vote:    voteThreshold,
	}, nil
}

// MustNewHistoryTable panics on configuration error.
func MustNewHistoryTable(rc mem.RegionConfig, numEntries, ways int, voteThreshold float64) *HistoryTable {
	h, err := NewHistoryTable(rc, numEntries, ways, voteThreshold)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns a snapshot of the lookup counters.
func (h *HistoryTable) Stats() HistoryStats { return h.stats }

// Capacity returns the total number of entries.
func (h *HistoryTable) Capacity() int { return len(h.sets) }

// longKey and shortKey derive the two event keys of a trigger access. Both
// map to the same set because the set index is computed from the short key
// only — the heart of the paper's consolidation trick.
func (h *HistoryTable) longKey(pc mem.PC, addr mem.Addr) uint64 {
	return prefetch.EventPCAddress.Key(pc, addr, h.rc)
}

func (h *HistoryTable) shortKey(pc mem.PC, addr mem.Addr) uint64 {
	return prefetch.EventPCOffset.Key(pc, addr, h.rc)
}

func (h *HistoryTable) setFor(shortKey uint64) []historyEntry {
	si := int(shortKey & h.setMask)
	return h.sets[si*h.ways : (si+1)*h.ways]
}

// Insert records the footprint observed after the trigger (pc, addr). The
// footprint must be in region-absolute form; it is anchored (rotated so
// the trigger offset sits at bit 0) before storage so it can be applied at
// any future trigger offset.
func (h *HistoryTable) Insert(pc mem.PC, addr mem.Addr, triggerOffset int, fp prefetch.Footprint) {
	h.sanCheckTrigger(triggerOffset)
	long := h.foldTag(h.longKey(pc, addr))
	short := h.shortKey(pc, addr)
	anchored := fp.Rotate(triggerOffset, 0, h.rc.Blocks())
	set := h.setFor(short)
	h.clock++
	h.stats.Insertions++

	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == long {
			e.footprint = anchored
			e.shortTag = short
			e.offset = triggerOffset
			e.lru = h.clock
			return
		}
		if !e.valid {
			if victim == -1 || set[victim].valid {
				victim = i
				victimLRU = 0
			}
			continue
		}
		if e.lru < victimLRU {
			victim = i
			victimLRU = e.lru
		}
	}
	if set[victim].valid {
		h.stats.Evictions++
	}
	set[victim] = historyEntry{
		valid:     true,
		longTag:   long,
		shortTag:  short,
		lru:       h.clock,
		footprint: anchored,
		offset:    triggerOffset,
	}
	h.sanAfterInsert(short)
}

// Lookup consults the table for the trigger (pc, addr): first with the
// long PC+Address event, then — within the same set — with the short
// PC+Offset event. The returned footprint is region-absolute, re-anchored
// at the trigger's own offset. For short matches the footprint is the
// ≥vote-threshold majority across all matching entries (§IV's empirically
// best heuristic).
func (h *HistoryTable) Lookup(pc mem.PC, addr mem.Addr, triggerOffset int) (prefetch.Footprint, MatchKind) {
	h.sanCheckTrigger(triggerOffset)
	long := h.foldTag(h.longKey(pc, addr))
	short := h.shortKey(pc, addr)
	set := h.setFor(short)
	h.stats.Lookups++

	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == long {
			h.clock++
			e.lru = h.clock
			h.stats.LongHits++
			return e.footprint.Rotate(0, triggerOffset, h.rc.Blocks()), MatchLong
		}
	}

	// Short-event pass over the same set: count votes per block.
	var votes [64]int
	matches := 0
	var newest *historyEntry
	var newestLRU uint64
	for i := range set {
		e := &set[i]
		if !e.valid || e.shortTag != short {
			continue
		}
		if newest == nil || e.lru > newestLRU {
			newest = e
			newestLRU = e.lru // pre-touch recency decides "most recent"
		}
		matches++
		h.clock++
		e.lru = h.clock
		// Iterate set bits in place: materialising a []int per matching
		// entry (Footprint.Blocks) allocated on every short-vote lookup,
		// the hottest path of the whole simulation.
		for v := uint64(e.footprint); v != 0; v &= v - 1 {
			votes[bits.TrailingZeros64(v)]++
		}
	}
	if matches == 0 {
		h.stats.Misses++
		return 0, MatchNone
	}
	if h.recent {
		h.stats.ShortHits++
		return newest.footprint.Rotate(0, triggerOffset, h.rc.Blocks()), MatchShort
	}
	h.stats.ShortHits++
	needed := int(h.vote*float64(matches) + 0.9999) // ceil(threshold × matches)
	if needed < 1 {
		needed = 1
	}
	var fp prefetch.Footprint
	for b := 0; b < h.rc.Blocks(); b++ {
		if votes[b] >= needed {
			fp = fp.With(b)
		}
	}
	return fp.Rotate(0, triggerOffset, h.rc.Blocks()), MatchShort
}

// storageBits estimates the hardware budget: per entry a valid bit,
// recency bits, a partial long tag, and one footprint bit per block. The
// default widths reproduce the paper's 119 KB figure for 16 K entries.
func (h *HistoryTable) storageBits(longTagBits, recencyBits int) int {
	per := 1 + recencyBits + longTagBits + h.rc.Blocks()
	return len(h.sets) * per
}
