//go:build san

package prefetch

import "bingo/internal/san"

// sanState is the per-table checker state of the runtime invariant
// sanitizer (build tag `san`).
type sanState struct {
	events uint64 // inserts since the last deep sweep
}

// sanAfterInsert verifies the metadata table's residency invariants after
// an insertion into key's set: no duplicate tags within the set, and the
// cached size counter within capacity. Every san.DeepInterval() inserts
// the whole table is swept and size is recounted from scratch.
func (t *Table[V]) sanAfterInsert(key uint64) {
	if !san.Enabled() {
		return
	}
	if t.size < 0 || t.size > len(t.tags) {
		san.Failf("prefetch.table", 0, san.TableResidency,
			"size counter %d outside [0,%d]", t.size, len(t.tags))
	}
	si, _ := t.slot(key)
	base := si * t.ways
	for w := 0; w < t.ways; w++ {
		if t.fp(si, w) == 0 {
			continue
		}
		tag := t.tags[base+w]
		if t.lru[base+w] > t.clock {
			san.Failf("prefetch.table", 0, san.TableResidency,
				"entry tag %#x has recency stamp %d beyond table clock %d",
				tag, t.lru[base+w], t.clock)
		}
		for v := w + 1; v < t.ways; v++ {
			if t.fp(si, v) != 0 && t.tags[base+v] == tag {
				san.Failf("prefetch.table", 0, san.TableResidency,
					"duplicate tag %#x in ways %d and %d of the set for key %#x",
					tag, w, v, key)
			}
		}
	}
	t.san.events++
	if t.san.events%san.DeepInterval() == 0 {
		t.sanDeepCheck()
	}
}

// sanDeepCheck recounts valid entries across the whole table and verifies
// the incremental size counter, the set-index placement and fingerprint
// byte of every tag, and that empty ways and the padding lanes of each
// set's last fingerprint word hold zeros.
func (t *Table[V]) sanDeepCheck() {
	count := 0
	for i := range t.tags {
		fp := t.fp(i/t.ways, i%t.ways)
		if fp == 0 {
			if t.tags[i] != 0 {
				san.Failf("prefetch.table", 0, san.TableResidency,
					"empty way %d of set %d holds tag %#x", i%t.ways, i/t.ways, t.tags[i])
			}
			continue
		}
		count++
		want, wantFP := t.slot(t.tags[i])
		if got := i / t.ways; got != want {
			san.Failf("prefetch.table", 0, san.TableResidency,
				"tag %#x resident in set %d but hashes to set %d", t.tags[i], got, want)
		}
		if fp != wantFP {
			san.Failf("prefetch.table", 0, san.TableResidency,
				"tag %#x in set %d way %d has fingerprint %#x, its hash gives %#x",
				t.tags[i], i/t.ways, i%t.ways, fp, wantFP)
		}
	}
	if count != t.size {
		san.Failf("prefetch.table", 0, san.TableResidency,
			"size counter %d but %d valid entries resident", t.size, count)
	}
	for k := t.words - 1; k < len(t.fps); k += t.words {
		if pad := t.fps[k] &^ (t.tail >> 7 * 0xff); pad != 0 {
			san.Failf("prefetch.table", 0, san.TableResidency,
				"set %d has fingerprint bits %#x beyond its %d ways", k/t.words, pad, t.ways)
		}
	}
}

// sanCheckFootprint verifies a footprint stays within the region geometry:
// a region of `blocks` blocks must never mark a bit at or beyond `blocks`.
func sanCheckFootprint(f Footprint, blocks int) {
	if !san.Enabled() {
		return
	}
	if blocks <= 0 || blocks > 64 {
		san.Failf("prefetch.footprint", 0, san.BingoFootprint,
			"region geometry of %d blocks outside (0,64]", blocks)
	}
	if blocks < 64 && uint64(f)>>uint(blocks) != 0 {
		san.Failf("prefetch.footprint", 0, san.BingoFootprint,
			"footprint %#x marks blocks at or beyond region size %d", uint64(f), blocks)
	}
}

// trackerSan is the per-tracker checker state of the runtime invariant
// sanitizer (build tag `san`).
type trackerSan struct {
	events uint64 // filter inserts since the last deep sweep
}

// sanAfterInsert counts a filter insert; every san.DeepInterval() inserts
// the presence counts are swept.
func (rt *RegionTracker) sanAfterInsert() {
	if !san.Enabled() {
		return
	}
	rt.san.events++
	if rt.san.events%san.DeepInterval() == 0 {
		rt.sanDeepCheck()
	}
}

// sanDeepCheck recounts each presence bucket from the filter and
// accumulation tables, and verifies that no region is in both: a count
// below its recount would let OnEviction skip a tracked region.
func (rt *RegionTracker) sanDeepCheck() {
	recount := make([]int, len(rt.presence))
	rt.filter.Range(func(region uint64, _ *ActiveRegion) bool {
		recount[rt.presenceIndex(region)]++
		return true
	})
	rt.accum.Range(func(region uint64, _ *ActiveRegion) bool {
		recount[rt.presenceIndex(region)]++
		if _, ok := rt.filter.Lookup(region, false); ok {
			san.Failf("prefetch.tracker", 0, san.TrackerPresence,
				"region %#x is in both the filter and the accumulation table", region)
		}
		return true
	})
	for b, n := range recount {
		if int(rt.presence[b]) != n {
			san.Failf("prefetch.tracker", 0, san.TrackerPresence,
				"presence bucket %d counts %d tracked regions, the tables hold %d", b, rt.presence[b], n)
		}
	}
}
