// Package core implements the paper's contribution: the Bingo spatial data
// prefetcher (§IV), its single unified history table indexed by the short
// event and tagged with the long event, and the instrumented single-event
// and multi-event (TAGE-like) variants used by the motivation experiments
// of §III (Figures 2–4).
package core

import (
	"fmt"

	"bingo/internal/lru"
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

// historyEntry is one way of the unified table: 32 bytes. The long tag
// is the PC+Address event; the short tag (PC+Offset) is physically a
// subset of the long event's bits in hardware — we store it explicitly
// for clarity. Recency lives in the set's lru.Order, not in the entry.
type historyEntry struct {
	longTag   uint64
	shortTag  uint64
	footprint prefetch.Footprint // anchored: trigger block rotated to bit 0
	offset    uint8              // trigger offset the footprint was learned at
	valid     bool
}

// HistoryTable is Bingo's single unified history table (Figure 5): indexed
// with a hash of the shortest event (PC+Offset) and tagged with the
// longest (PC+Address), so one physical structure serves both lookup
// events and redundant storage is eliminated by construction.
type HistoryTable struct {
	rc       mem.RegionConfig
	ways     int
	setMask  uint64
	sets     []historyEntry // set*ways+way
	order    []lru.Order    // per set: recency order of its ways
	vote     float64
	recent   bool // use the most-recent short match instead of voting
	longBits uint // 0 = full-width tags; else hardware-style truncation
	stats    HistoryStats
	san      sanState // runtime invariant sanitizer (empty without -tags=san)
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
	sets, err := historySets(numEntries, ways, voteThreshold)
	if err != nil {
		return nil, err
	}
	order := make([]lru.Order, sets)
	fresh := lru.New(ways)
	for i := range order {
		order[i] = fresh
	}
	return &HistoryTable{
		rc:      rc,
		ways:    ways,
		setMask: uint64(sets - 1),
		sets:    make([]historyEntry, numEntries),
		order:   order,
		vote:    voteThreshold,
	}, nil
}

// historySets returns the set count of a numEntries-entry, ways-way
// history table and checks its vote threshold: the rules NewHistoryTable
// and Config.Validate share.
func historySets(numEntries, ways int, voteThreshold float64) (int, error) {
	sets, err := prefetch.TableSets(numEntries, ways)
	if err != nil {
		return 0, fmt.Errorf("core: history: %w", err)
	}
	if ways > lru.MaxWays {
		return 0, fmt.Errorf("core: history: associativity %d above the %d ways a set's recency order ranks",
			ways, lru.MaxWays)
	}
	if !(voteThreshold > 0 && voteThreshold <= 1) { // also rejects NaN
		return 0, fmt.Errorf("core: vote threshold %v must be in (0,1]", voteThreshold)
	}
	return sets, nil
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

// setFor returns the index of shortKey's set and its entries.
func (h *HistoryTable) setFor(shortKey uint64) (int, []historyEntry) {
	si := int(shortKey & h.setMask)
	return si, h.sets[si*h.ways : (si+1)*h.ways]
}

// touch records a reference to way w of set si.
func (h *HistoryTable) touch(si, w int) {
	h.order[si] = h.order[si].Touch(w, h.ways)
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
	si, set := h.setFor(short)
	h.stats.Insertions++

	victim := -1
	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == long {
			e.footprint = anchored
			e.shortTag = short
			e.offset = uint8(triggerOffset)
			h.touch(si, i)
			return
		}
		if !e.valid && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = h.order[si].LRU()
		h.stats.Evictions++
	}
	set[victim] = historyEntry{
		valid:     true,
		longTag:   long,
		shortTag:  short,
		footprint: anchored,
		offset:    uint8(triggerOffset),
	}
	h.touch(si, victim)
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
	si, set := h.setFor(short)
	h.stats.Lookups++

	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == long {
			h.touch(si, i)
			h.stats.LongHits++
			return e.footprint.Rotate(0, triggerOffset, h.rc.Blocks()), MatchLong
		}
	}

	// Short-event pass over the same set: count votes per block.
	var votes voteCounts
	matches := 0
	var newest *historyEntry
	newestRank := -1
	before := h.order[si] // pre-touch recency decides "most recent"
	for i := range set {
		e := &set[i]
		if !e.valid || e.shortTag != short {
			continue
		}
		if r := before.Rank(i); r > newestRank {
			newest, newestRank = e, r
		}
		matches++
		h.touch(si, i)
		votes.add(e.footprint)
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
	// Rotate drops the comparator's bits past the region's last block.
	return prefetch.Footprint(votes.atLeast(needed)).Rotate(0, triggerOffset, h.rc.Blocks()), MatchShort
}

// voteCounts holds a 5-bit vote count for each of 64 blocks, bit-sliced:
// bit b of plane k is bit k of block b's count. A set has at most
// lru.MaxWays = 16 ways, so a count never exceeds 16.
type voteCounts [5]uint64

// add adds one vote to every block of fp: a ripple-carry increment of all
// 64 counts at once.
func (v *voteCounts) add(fp prefetch.Footprint) {
	carry := uint64(fp)
	for k := 0; k < len(v) && carry != 0; k++ {
		v[k], carry = v[k]^carry, v[k]&carry
	}
}

// atLeast returns the blocks whose count is at least n (0 ≤ n < 32),
// comparing all 64 counts with n at once from the top bit down: gt marks
// counts already above n's high bits, eq those equal to them so far.
func (v *voteCounts) atLeast(n int) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	for k := len(v) - 1; k >= 0; k-- {
		if n>>k&1 != 0 {
			eq &= v[k]
		} else {
			gt |= eq & v[k]
			eq &^= v[k]
		}
	}
	return gt | eq
}

// storageBits estimates the hardware budget: per entry a valid bit,
// recency bits, a partial long tag, and one footprint bit per block. The
// default widths reproduce the paper's 119 KB figure for 16 K entries.
func (h *HistoryTable) storageBits(longTagBits, recencyBits int) int {
	per := 1 + recencyBits + longTagBits + h.rc.Blocks()
	return len(h.sets) * per
}
