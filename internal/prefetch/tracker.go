package prefetch

import (
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
type RegionTracker struct {
	//ckpt:skip derived from the region size re-supplied at construction
	rc     mem.RegionConfig
	filter *Table[ActiveRegion]
	accum  *Table[ActiveRegion]
	//ckpt:skip wiring, re-registered by the owning prefetcher's constructor
	onComplete func(ActiveRegion)

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
	//ckpt:skip scratch result, dead between Observe calls
	trig Trigger
}

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

// NewRegionTracker builds a tracker with the given filter/accumulation
// capacities (entries are fully counted by StorageBits).
func NewRegionTracker(rc mem.RegionConfig, filterEntries, accumEntries, ways int) (*RegionTracker, error) {
	ft, err := NewTable[ActiveRegion](filterEntries, ways)
	if err != nil {
		return nil, err
	}
	at, err := NewTable[ActiveRegion](accumEntries, ways)
	if err != nil {
		return nil, err
	}
	return &RegionTracker{rc: rc, filter: ft, accum: at}, nil
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

	if ar, ok := rt.accum.Lookup(region, true); ok {
		ar.Footprint = ar.Footprint.With(blockIdx)
		return nil
	}
	if fe, ok := rt.filter.Lookup(region, true); ok {
		if fe.TriggerOffset == blockIdx {
			return nil // same block again: still a single-block region
		}
		promoted := *fe
		promoted.Footprint = promoted.Footprint.With(blockIdx)
		rt.filter.Erase(region)
		if _, displaced, ok := rt.accum.Insert(region, promoted); ok {
			rt.CapacityCompletions++
			rt.complete(displaced)
		}
		return nil
	}

	// First touch: open a filter entry and, on a miss, report the trigger.
	ar := ActiveRegion{
		Region:        region,
		TriggerPC:     pc,
		TriggerAddr:   addr.BlockAlign(),
		TriggerOffset: blockIdx,
		Footprint:     Footprint(0).With(blockIdx),
	}
	rt.filter.Insert(region, ar)
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
// dropped.
func (rt *RegionTracker) OnEviction(addr mem.Addr) (ActiveRegion, bool) {
	region := rt.rc.RegionNumber(addr)
	if ar, ok := rt.accum.Erase(region); ok {
		rt.CompletedResidencies++
		rt.complete(ar)
		return ar, true
	}
	if _, ok := rt.filter.Erase(region); ok {
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
