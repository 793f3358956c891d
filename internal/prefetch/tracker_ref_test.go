package prefetch

import (
	"math/rand"
	"slices"
	"testing"

	"bingo/internal/mem"
)

// refRegionTable is the reference model of one tracker table: a map from
// region to its record plus, per set, an explicit recency list (least
// recently used first). A region's set is picked by the same hash as in
// Table; a full set evicts the head of its list.
type refRegionTable struct {
	ways    int
	sets    uint64
	entries map[uint64]ActiveRegion
	lists   [][]uint64
}

func newRefRegionTable(entries, ways int) *refRegionTable {
	sets := entries / ways
	return &refRegionTable{ways: ways, sets: uint64(sets), entries: map[uint64]ActiveRegion{}, lists: make([][]uint64, sets)}
}

func (t *refRegionTable) set(region uint64) int { return int(mem.Mix64(region) % t.sets) }

// remove drops region from its set's recency list.
func (t *refRegionTable) remove(region uint64) {
	s := t.set(region)
	t.lists[s] = slices.DeleteFunc(t.lists[s], func(r uint64) bool { return r == region })
}

// lookup returns region's record and moves it to the most recent place.
func (t *refRegionTable) lookup(region uint64) (ActiveRegion, bool) {
	ar, ok := t.entries[region]
	if ok {
		t.remove(region)
		s := t.set(region)
		t.lists[s] = append(t.lists[s], region)
	}
	return ar, ok
}

// insert adds a region the table does not hold, evicting the least
// recently used region of a full set.
func (t *refRegionTable) insert(region uint64, ar ActiveRegion) (ActiveRegion, bool) {
	s := t.set(region)
	var victim ActiveRegion
	full := len(t.lists[s]) == t.ways
	if full {
		victim = t.entries[t.lists[s][0]]
		delete(t.entries, t.lists[s][0])
		t.lists[s] = t.lists[s][1:]
	}
	t.entries[region] = ar
	t.lists[s] = append(t.lists[s], region)
	return victim, full
}

func (t *refRegionTable) erase(region uint64) (ActiveRegion, bool) {
	ar, ok := t.entries[region]
	if ok {
		delete(t.entries, region)
		t.remove(region)
	}
	return ar, ok
}

// refTracker is the reference model of RegionTracker (paper §IV's filter
// and accumulation tables) with no presence counts: every eviction
// probes both tables.
type refTracker struct {
	rc                                    mem.RegionConfig
	filter, accum                         *refRegionTable
	completed                             []ActiveRegion
	completedRes, capacityComp, dropSingl uint64
	filterDisplaced                       int // single-block regions a newer one displaced
}

func newRefTracker(rc mem.RegionConfig, filterEntries, accumEntries, ways int) *refTracker {
	return &refTracker{rc: rc, filter: newRefRegionTable(filterEntries, ways), accum: newRefRegionTable(accumEntries, ways)}
}

func (r *refTracker) observe(pc mem.PC, addr mem.Addr, hit bool) (Trigger, bool) {
	region, blk := r.rc.RegionNumber(addr), r.rc.BlockIndex(addr)
	if ar, ok := r.accum.lookup(region); ok {
		ar.Footprint = ar.Footprint.With(blk)
		r.accum.entries[region] = ar
		return Trigger{}, false
	}
	if fe, ok := r.filter.lookup(region); ok {
		if fe.TriggerOffset == blk {
			return Trigger{}, false
		}
		r.filter.erase(region)
		fe.Footprint = fe.Footprint.With(blk)
		if victim, ok := r.accum.insert(region, fe); ok {
			r.capacityComp++
			r.completed = append(r.completed, victim)
		}
		return Trigger{}, false
	}
	if _, ok := r.filter.insert(region, ActiveRegion{
		Region: region, TriggerPC: pc, TriggerAddr: addr.BlockAlign(),
		TriggerOffset: blk, Footprint: Footprint(0).With(blk),
	}); ok {
		r.filterDisplaced++
	}
	if hit {
		return Trigger{}, false
	}
	return Trigger{PC: pc, Addr: addr.BlockAlign(), Offset: blk, Region: region, Base: r.rc.RegionBase(addr)}, true
}

func (r *refTracker) onEviction(addr mem.Addr) (ActiveRegion, bool) {
	region := r.rc.RegionNumber(addr)
	if ar, ok := r.accum.erase(region); ok {
		r.completedRes++
		r.completed = append(r.completed, ar)
		return ar, true
	}
	if _, ok := r.filter.erase(region); ok {
		r.dropSingl++
	}
	return ActiveRegion{}, false
}

// checkPresence recounts rt's presence buckets from the regions the
// reference tracks.
func checkPresence(t *testing.T, rt *RegionTracker, ref *refTracker, op int) {
	t.Helper()
	want := make([]uint16, len(rt.presence))
	for _, tbl := range []*refRegionTable{ref.filter, ref.accum} {
		for region := range tbl.entries {
			want[rt.presenceIndex(region)]++
		}
	}
	for b := range want {
		if rt.presence[b] != want[b] {
			t.Fatalf("op %d: presence bucket %d counts %d, the reference tracks %d regions there", op, b, rt.presence[b], want[b])
		}
	}
}

// TestTrackerMatchesReference drives RegionTracker and the reference
// model with the same random stream of accesses and evictions: repeated
// blocks, promotions, displacements from both tables, and evictions of
// accumulating, single-block and untracked regions. It compares every
// trigger and eviction result, the completions in order, the counters,
// and the presence counts against a recount of the reference's regions.
func TestTrackerMatchesReference(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	for _, size := range []struct {
		name                string
		filter, accum, ways int
	}{
		{"bingo-sms-default", 64, 128, 16}, // Bingo's and SMS's Table I tracker
		{"small-4way", 16, 32, 4},
		{"tiny-4way", 8, 4, 4},
	} {
		t.Run(size.name, func(t *testing.T) {
			rt := MustNewRegionTracker(rc, size.filter, size.accum, size.ways)
			ref := newRefTracker(rc, size.filter, size.accum, size.ways)
			var got []ActiveRegion
			rt.SetCompleteFunc(func(ar ActiveRegion) { got = append(got, ar) })
			rng := rand.New(rand.NewSource(int64(size.accum)))
			pool := uint64(3 * (size.filter + size.accum))
			for op := 0; op < 20000; op++ {
				region := 1000 + rng.Uint64()%pool
				addr := mem.Addr(region<<rc.Shift() + uint64(rng.Intn(3))*mem.BlockSize)
				switch rng.Intn(10) {
				case 0, 1, 2: // eviction in a region of the pool
					gotAR, gotOK := rt.OnEviction(addr)
					wantAR, wantOK := ref.onEviction(addr)
					if gotAR != wantAR || gotOK != wantOK {
						t.Fatalf("op %d: OnEviction(%v) = %+v %v, reference %+v %v", op, addr, gotAR, gotOK, wantAR, wantOK)
					}
				case 3: // eviction in a region never touched
					far := mem.Addr(rng.Uint64() | 1<<62)
					if _, ok := rt.OnEviction(far); ok {
						t.Fatalf("op %d: OnEviction(%v) of an untouched region ended a residency", op, far)
					}
				default:
					pc, hit := mem.PC(0x400+4*rng.Intn(8)), rng.Intn(4) == 0
					trig := rt.Observe(pc, addr, hit)
					want, wantOK := ref.observe(pc, addr, hit)
					if (trig != nil) != wantOK || trig != nil && *trig != want {
						t.Fatalf("op %d: Observe(%v) = %+v, reference %+v %v", op, addr, trig, want, wantOK)
					}
				}
				if !slices.Equal(got, ref.completed) {
					t.Fatalf("op %d: completions %+v, reference %+v", op, got, ref.completed)
				}
				if rt.CompletedResidencies != ref.completedRes || rt.CapacityCompletions != ref.capacityComp || rt.DroppedSingles != ref.dropSingl {
					t.Fatalf("op %d: counters %d/%d/%d, reference %d/%d/%d", op,
						rt.CompletedResidencies, rt.CapacityCompletions, rt.DroppedSingles,
						ref.completedRes, ref.capacityComp, ref.dropSingl)
				}
				if op%97 == 0 {
					checkPresence(t, rt, ref, op)
				}
			}
			checkPresence(t, rt, ref, -1)
			if ref.completedRes == 0 || ref.capacityComp == 0 || ref.dropSingl == 0 || ref.filterDisplaced == 0 {
				t.Fatalf("stream too weak: %d completed, %d capacity completions, %d dropped singles, %d filter displacements",
					ref.completedRes, ref.capacityComp, ref.dropSingl, ref.filterDisplaced)
			}
		})
	}
}
