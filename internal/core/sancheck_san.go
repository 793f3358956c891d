//go:build san

package core

import "bingo/internal/san"

// sanState is the per-history-table checker state of the runtime invariant
// sanitizer (build tag `san`).
type sanState struct {
	events uint64 // inserts since the last deep sweep
}

// sanCheckTrigger verifies a trigger offset lies within the region
// geometry before it is used to rotate a footprint.
func (h *HistoryTable) sanCheckTrigger(triggerOffset int) {
	if !san.Enabled() {
		return
	}
	if triggerOffset < 0 || triggerOffset >= h.rc.Blocks() {
		san.Failf("core.history", 0, san.BingoFootprint,
			"trigger offset %d outside region of %d blocks", triggerOffset, h.rc.Blocks())
	}
}

// sanAfterInsert verifies the unified table's residency invariants on the
// set just written: long tags are unique among valid ways (the PC+Address
// event is the full tag, so two ways must never carry the same one),
// the set's recency order ranks each way exactly once, stored trigger
// offsets lie within the region, and anchored footprints fit the region
// geometry. Every san.DeepInterval() inserts the whole table is swept.
func (h *HistoryTable) sanAfterInsert(short uint64) {
	if !san.Enabled() {
		return
	}
	si, set := h.setFor(short)
	h.sanCheckOrder(si)
	for i := range set {
		e := &set[i]
		if !e.valid {
			continue
		}
		h.sanCheckEntry(e)
		for j := i + 1; j < len(set); j++ {
			if set[j].valid && set[j].longTag == e.longTag {
				san.Failf("core.history", 0, san.BingoResidency,
					"duplicate long tag %#x in ways %d and %d of the set for short key %#x",
					e.longTag, i, j, short)
			}
		}
	}
	h.san.events++
	if h.san.events%san.DeepInterval() == 0 {
		h.sanDeepCheck()
	}
}

// sanCheckOrder verifies set si's recency order ranks each of its ways
// exactly once.
func (h *HistoryTable) sanCheckOrder(si int) {
	if o := h.order[si]; !o.Valid(h.ways) {
		san.Failf("core.history", 0, san.BingoResidency,
			"set %d recency order %#x does not rank each of its %d ways exactly once", si, uint64(o), h.ways)
	}
}

// sanCheckEntry verifies one resident entry's bounds.
func (h *HistoryTable) sanCheckEntry(e *historyEntry) {
	if int(e.offset) >= h.rc.Blocks() {
		san.Failf("core.history", 0, san.BingoResidency,
			"entry long tag %#x learned at offset %d outside region of %d blocks",
			e.longTag, e.offset, h.rc.Blocks())
	}
	if n := h.rc.Blocks(); n < 64 && uint64(e.footprint)>>uint(n) != 0 {
		san.Failf("core.history", 0, san.BingoFootprint,
			"entry long tag %#x stores footprint %#x marking blocks beyond region size %d",
			e.longTag, uint64(e.footprint), n)
	}
}

// sanDeepCheck sweeps every set: entry bounds, recency orders and
// set-wide long-tag uniqueness, and that every resident short tag actually indexes the set
// it lives in (residency placement).
func (h *HistoryTable) sanDeepCheck() {
	numSets := int(h.setMask) + 1
	for si := 0; si < numSets; si++ {
		set := h.sets[si*h.ways : (si+1)*h.ways]
		h.sanCheckOrder(si)
		for i := range set {
			e := &set[i]
			if !e.valid {
				continue
			}
			h.sanCheckEntry(e)
			if got := int(e.shortTag & h.setMask); got != si {
				san.Failf("core.history", 0, san.BingoResidency,
					"entry short tag %#x resident in set %d but indexes set %d",
					e.shortTag, si, got)
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].valid && set[j].longTag == e.longTag {
					san.Failf("core.history", 0, san.BingoResidency,
						"duplicate long tag %#x in ways %d and %d of set %d", e.longTag, i, j, si)
				}
			}
		}
	}
}
