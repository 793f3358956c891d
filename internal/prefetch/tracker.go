package prefetch

import (
	"fmt"
	"math"

	"bingo/internal/mem"
)

// ActiveRegion is the accumulation-table record for a region currently
// being observed: the trigger access that opened it plus the footprint of
// blocks touched during its residency.
type ActiveRegion struct {
	Region        uint64 // region number
	TriggerPC     mem.PC
	TriggerAddr   mem.Addr // block-aligned address of the trigger access
	TriggerOffset int      // block index of the trigger within the region
	Footprint     Footprint
}

// Trigger describes the event information of a region's first access,
// handed to the history lookup when prefetching is initiated.
type Trigger struct {
	PC     mem.PC
	Addr   mem.Addr
	Offset int
	Region uint64
	Base   mem.Addr // region base address
}

// RegionTracker implements the filter-table / accumulation-table front end
// shared by SMS-style and Bingo-style prefetchers (paper §IV): the first
// access to a region allocates a filter-table entry; a second access to a
// *different* block promotes it to the accumulation table where the full
// footprint is gathered; eviction of any block of the region ends its
// residency. Regions that never saw a second distinct block are dropped
// without training, which keeps one-shot regions from polluting history.
//
// A region is tracked by at most one of the two tables, and presence
// counts the tracked regions of each hash bucket. It is a counting
// filter, so it has no false negatives: a bucket that reads 0 holds no
// tracked region, and OnEviction (called for every eviction at the attach
// level, most of them in regions no table holds) then returns after one
// load instead of probing both tables. The counts only speed up the
// simulation; they model no hardware, so StorageBits leaves them out.
type RegionTracker struct {
	rc            mem.RegionConfig
	filter        *Table[ActiveRegion]
	accum         *Table[ActiveRegion]
	presence      []uint16 // tracked regions per bucket
	presenceShift uint     // 64 - log2(len(presence))
	onComplete    func(ActiveRegion)

	// CompletedResidencies counts footprints handed back via OnEviction.
	CompletedResidencies uint64
	// CapacityCompletions counts footprints committed because their
	// accumulation-table entry was displaced by a newer region.
	CapacityCompletions uint64
	// DroppedSingles counts filter entries that ended with one block only.
	DroppedSingles uint64

	// trig is the scratch result Observe returns a pointer into, so the
	// per-access hot path stays allocation-free. It is overwritten by the
	// next Observe call.
	trig Trigger

	san trackerSan // runtime invariant sanitizer (empty without -tags=san)
}

// presencePerEntry is how many presence buckets the tracker keeps per
// table entry (rounded up to a power of two in all): with at most one
// tracked region in eight buckets, most untracked regions find a zero.
const presencePerEntry = 8

// presenceIndex returns region's presence bucket: the top bits of a
// Fibonacci hash of the region number.
func (rt *RegionTracker) presenceIndex(region uint64) uint64 {
	return region * 0x9e3779b97f4a7c15 >> rt.presenceShift
}

// presenceBucket returns the count of region's presence bucket.
func (rt *RegionTracker) presenceBucket(region uint64) *uint16 {
	return &rt.presence[rt.presenceIndex(region)]
}

// untrack records that a region left the table that tracked it.
func (rt *RegionTracker) untrack(region uint64) { *rt.presenceBucket(region)-- }

// SetCompleteFunc registers the callback invoked whenever a region's
// residency ends with a multi-block footprint — either because one of its
// blocks left the cache (OnEviction) or because its accumulation-table
// entry was displaced by capacity pressure. The latter matches the
// authors' released implementation, where displaced accumulation entries
// are committed to the history table rather than dropped; without it a
// prefetcher behind a large LLC would learn nothing until the cache
// fills.
func (rt *RegionTracker) SetCompleteFunc(fn func(ActiveRegion)) { rt.onComplete = fn }

func (rt *RegionTracker) complete(ar ActiveRegion) {
	if rt.onComplete != nil {
		rt.onComplete(ar)
	}
}

// CheckTrackerGeometry reports whether NewRegionTracker accepts these
// table sizes, without allocating the tables.
func CheckTrackerGeometry(filterEntries, accumEntries, ways int) error {
	if _, err := TableSets(filterEntries, ways); err != nil {
		return fmt.Errorf("filter table: %w", err)
	}
	if _, err := TableSets(accumEntries, ways); err != nil {
		return fmt.Errorf("accumulation table: %w", err)
	}
	if n := filterEntries + accumEntries; n > math.MaxUint16 {
		return fmt.Errorf("prefetch: tracker of %d entries above the %d regions a presence count holds", n, math.MaxUint16)
	}
	return nil
}

// NewRegionTracker builds a tracker with the given filter/accumulation
// capacities (entries are fully counted by StorageBits).
func NewRegionTracker(rc mem.RegionConfig, filterEntries, accumEntries, ways int) (*RegionTracker, error) {
	if err := CheckTrackerGeometry(filterEntries, accumEntries, ways); err != nil {
		return nil, err
	}
	want := uint64(presencePerEntry * (filterEntries + accumEntries))
	buckets := uint64(1) << mem.Log2(2*want-1) // want rounded up to a power of two
	return &RegionTracker{
		rc:            rc,
		filter:        MustNewTable[ActiveRegion](filterEntries, ways),
		accum:         MustNewTable[ActiveRegion](accumEntries, ways),
		presence:      make([]uint16, buckets),
		presenceShift: 64 - mem.Log2(buckets),
	}, nil
}

// MustNewRegionTracker panics on configuration error.
func MustNewRegionTracker(rc mem.RegionConfig, filterEntries, accumEntries, ways int) *RegionTracker {
	rt, err := NewRegionTracker(rc, filterEntries, accumEntries, ways)
	if err != nil {
		panic(err)
	}
	return rt
}

// Region returns the tracker's region geometry.
func (rt *RegionTracker) Region() mem.RegionConfig { return rt.rc }

// Observe processes a demand access. When the access is the first touch
// of an untracked region AND a cache miss, it returns that trigger — the
// moment a PPH prefetcher consults its history. Spatial region generation
// is initiated by misses (as in SMS): the first access to a region whose
// blocks are still cached re-opens footprint tracking but is not a
// prefetch opportunity, since the data is already present.
//
// Accumulation entries displaced by capacity pressure end their residency
// early and are reported through the SetCompleteFunc callback, as in the
// authors' released implementation.
//
// The returned pointer aliases tracker-owned scratch storage and is valid
// only until the next Observe call — consume it inside the same OnAccess.
func (rt *RegionTracker) Observe(pc mem.PC, addr mem.Addr, hit bool) (trigger *Trigger) {
	region := rt.rc.RegionNumber(addr)
	blockIdx := rt.rc.BlockIndex(addr)
	count := rt.presenceBucket(region)

	if *count != 0 {
		if ar, ok := rt.accum.Lookup(region, true); ok {
			ar.Footprint = ar.Footprint.With(blockIdx)
			return nil
		}
		if fe, ok := rt.filter.Lookup(region, true); ok {
			if fe.TriggerOffset == blockIdx {
				return nil // same block again: still a single-block region
			}
			// The region moves from one table to the other: its count stays.
			promoted := *fe
			promoted.Footprint = promoted.Footprint.With(blockIdx)
			rt.filter.Erase(region)
			if key, displaced, ok := rt.accum.Insert(region, promoted); ok {
				rt.untrack(key)
				rt.CapacityCompletions++
				rt.complete(displaced)
			}
			return nil
		}
	}

	// First touch: open a filter entry and, on a miss, report the trigger.
	ar := ActiveRegion{
		Region:        region,
		TriggerPC:     pc,
		TriggerAddr:   addr.BlockAlign(),
		TriggerOffset: blockIdx,
		Footprint:     Footprint(0).With(blockIdx),
	}
	*count++
	if key, _, ok := rt.filter.Insert(region, ar); ok {
		rt.untrack(key) // a displaced single-block region ends untrained
	}
	rt.sanAfterInsert()
	if hit {
		return nil
	}
	rt.trig = Trigger{
		PC:     pc,
		Addr:   addr.BlockAlign(),
		Offset: blockIdx,
		Region: region,
		Base:   rt.rc.RegionBase(addr),
	}
	return &rt.trig
}

// OnEviction processes a block eviction at the attach level. If the block
// belongs to a tracked region the region's residency ends: accumulated
// footprints are returned for training; single-block filter entries are
// dropped. A region whose presence bucket reads 0 is tracked by neither
// table, so neither is probed.
func (rt *RegionTracker) OnEviction(addr mem.Addr) (ActiveRegion, bool) {
	region := rt.rc.RegionNumber(addr)
	count := rt.presenceBucket(region)
	if *count == 0 {
		return ActiveRegion{}, false
	}
	if ar, ok := rt.accum.Erase(region); ok {
		*count--
		rt.CompletedResidencies++
		rt.complete(ar)
		return ar, true
	}
	if _, ok := rt.filter.Erase(region); ok {
		*count--
		rt.DroppedSingles++
	}
	return ActiveRegion{}, false
}

// StorageBits estimates the hardware cost of the tracker: per entry a
// region tag, trigger PC and offset, and a footprint bit per block.
func (rt *RegionTracker) StorageBits() int {
	const regionTagBits, pcBits = 30, 16
	offsetBits := int(mem.Log2(uint64(rt.rc.Blocks())))
	perFilter := regionTagBits + pcBits + offsetBits + 1 // +valid
	perAccum := perFilter + rt.rc.Blocks()
	return rt.filter.Capacity()*perFilter + rt.accum.Capacity()*perAccum
}
