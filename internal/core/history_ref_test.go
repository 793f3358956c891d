package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// refHistory is the reference model for HistoryTable: per set, the ways'
// entries and an explicit recency list (least recently used first), with
// no packing. An insert that matches no long tag fills the set's
// lowest-indexed invalid way, else evicts the head of the list; every
// hit moves the way to the tail. The most-recent policy picks the short
// match latest in the list before any of the matches is touched.
type refHistory struct {
	rc      mem.RegionConfig
	ways    int
	sets    int
	vote    float64
	recent  bool
	entries [][]historyEntry
	recency [][]int
	stats   HistoryStats
}

func newRefHistory(rc mem.RegionConfig, numEntries, ways int, vote float64) *refHistory {
	r := &refHistory{rc: rc, ways: ways, sets: numEntries / ways, vote: vote}
	for s := 0; s < r.sets; s++ {
		r.entries = append(r.entries, make([]historyEntry, ways))
		var list []int
		for w := 0; w < ways; w++ {
			list = append(list, w)
		}
		r.recency = append(r.recency, list)
	}
	return r
}

func (r *refHistory) keys(pc mem.PC, addr mem.Addr) (long, short uint64, set int) {
	long = prefetch.EventPCAddress.Key(pc, addr, r.rc)
	short = prefetch.EventPCOffset.Key(pc, addr, r.rc)
	return long, short, int(short % uint64(r.sets))
}

func (r *refHistory) touch(set, way int) {
	list := r.recency[set]
	for i, w := range list {
		if w == way {
			r.recency[set] = append(append(list[:i:i], list[i+1:]...), way)
			return
		}
	}
}

func (r *refHistory) insert(pc mem.PC, addr mem.Addr, off int, fp prefetch.Footprint) {
	long, short, set := r.keys(pc, addr)
	anchored := fp.Rotate(off, 0, r.rc.Blocks())
	r.stats.Insertions++
	ways := r.entries[set]
	for w := range ways {
		if ways[w].valid && ways[w].longTag == long {
			ways[w].shortTag, ways[w].footprint, ways[w].offset = short, anchored, uint8(off)
			r.touch(set, w)
			return
		}
	}
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = r.recency[set][0]
		r.stats.Evictions++
	}
	ways[victim] = historyEntry{valid: true, longTag: long, shortTag: short, footprint: anchored, offset: uint8(off)}
	r.touch(set, victim)
}

func (r *refHistory) lookup(pc mem.PC, addr mem.Addr, off int) (prefetch.Footprint, MatchKind) {
	long, short, set := r.keys(pc, addr)
	n := r.rc.Blocks()
	r.stats.Lookups++
	ways := r.entries[set]
	for w := range ways {
		if ways[w].valid && ways[w].longTag == long {
			r.touch(set, w)
			r.stats.LongHits++
			return ways[w].footprint.Rotate(0, off, n), MatchLong
		}
	}
	var matches []int
	for w := range ways {
		if ways[w].valid && ways[w].shortTag == short {
			matches = append(matches, w)
		}
	}
	if len(matches) == 0 {
		r.stats.Misses++
		return 0, MatchNone
	}
	r.stats.ShortHits++
	newest := -1
	for _, w := range r.recency[set] { // least recent first: the last match wins
		for _, m := range matches {
			if w == m {
				newest = w
			}
		}
	}
	for _, w := range matches {
		r.touch(set, w)
	}
	if r.recent {
		return ways[newest].footprint.Rotate(0, off, n), MatchShort
	}
	needed := int(r.vote*float64(len(matches)) + 0.9999)
	if needed < 1 {
		needed = 1
	}
	var fp prefetch.Footprint
	for b := 0; b < n; b++ {
		votes := 0
		for _, w := range matches {
			if ways[w].footprint.Test(b) {
				votes++
			}
		}
		if votes >= needed {
			fp = fp.With(b)
		}
	}
	return fp.Rotate(0, off, n), MatchShort
}

// TestHistoryMatchesReference drives HistoryTable and the reference
// model with the same random inserts and lookups, under the vote and
// the most-recent policies, at 1 to 16 ways. Few PCs and many regions
// make long tags miss while short tags match several ways of a full
// set. It compares every lookup, the stats, and every way of the table
// after each operation, so a different victim shows at once.
func TestHistoryMatchesReference(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	for ways := 1; ways <= 16; ways++ {
		for _, recent := range []bool{false, true} {
			const sets = 4
			h := MustNewHistoryTable(rc, sets*ways, ways, 0.20)
			h.SetMostRecentPolicy(recent)
			ref := newRefHistory(rc, sets*ways, ways, 0.20)
			ref.recent = recent
			rng := rand.New(rand.NewSource(int64(ways)))
			for op := 0; op < 3000; op++ {
				pc := mem.PC(0x400 + 4*rng.Intn(3))
				off := rng.Intn(4)
				addr := blockAddr(uint64(rng.Intn(6*ways)), off)
				if rng.Intn(2) == 0 {
					fp := prefetch.Footprint(rng.Uint32()) | prefetch.Footprint(0).With(off)
					h.Insert(pc, addr, off, fp)
					ref.insert(pc, addr, off, fp)
				} else {
					gotFP, gotKind := h.Lookup(pc, addr, off)
					wantFP, wantKind := ref.lookup(pc, addr, off)
					if gotFP != wantFP || gotKind != wantKind {
						t.Fatalf("%d ways recent=%v op %d: Lookup = %#x/%s, reference %#x/%s",
							ways, recent, op, uint64(gotFP), gotKind, uint64(wantFP), wantKind)
					}
				}
				if h.Stats() != ref.stats {
					t.Fatalf("%d ways recent=%v op %d: stats %+v, reference %+v", ways, recent, op, h.Stats(), ref.stats)
				}
				for s := 0; s < sets; s++ {
					for w := 0; w < ways; w++ {
						if got, want := h.sets[s*ways+w], ref.entries[s][w]; got != want {
							t.Fatalf("%d ways recent=%v op %d: set %d way %d holds %+v, reference %+v",
								ways, recent, op, s, w, got, want)
						}
					}
				}
			}
			st := ref.stats
			if st.Evictions == 0 || st.ShortHits == 0 || st.LongHits == 0 || st.Misses == 0 {
				t.Fatalf("%d ways recent=%v: stream too weak: %+v", ways, recent, st)
			}
		}
	}
}

// TestHistoryEntryIs32Bytes pins the entry layout: with recency in the
// set's order word, an entry is 32 bytes, so the Table I history (16 K
// entries per core) takes 512 KiB of host memory per core.
func TestHistoryEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(historyEntry{}); n > 32 {
		t.Fatalf("history entry is %d bytes, want at most 32", n)
	}
}
