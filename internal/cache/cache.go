// Package cache implements the set-associative caches of the simulated
// memory hierarchy. The timing model is latency-based with MSHR-style
// coalescing: a miss installs its line immediately with a future arrival
// cycle, and any subsequent access to the same block before that cycle
// pays only the remaining latency instead of issuing a duplicate request
// below. Prefetch fills are tagged so coverage, accuracy, late-prefetch
// and overprediction statistics fall out of ordinary bookkeeping.
package cache

import (
	"fmt"
	"math"

	"bingo/internal/lru"
	"bingo/internal/mem"
)

// AccessKind classifies requests flowing through the hierarchy.
type AccessKind uint8

const (
	// Demand is a load or instruction-driven read the core waits on.
	Demand AccessKind = iota
	// Write is a demand store (write-allocate, write-back).
	Write
	// Prefetch is a prefetcher-issued fill; the core never waits on it.
	Prefetch
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case Demand:
		return "demand"
	case Write:
		return "write"
	default:
		return "prefetch"
	}
}

// Request is a single block-granularity access descriptor.
type Request struct {
	Addr mem.Addr // physical address (any byte within the block)
	PC   mem.PC
	Core int
	Kind AccessKind
}

// Result reports when a request's data is available and where it hit.
type Result struct {
	// CompleteAt is the cycle at which data is available to the requester.
	CompleteAt uint64
	// HitLevel names the level that supplied the data ("L1", "LLC",
	// "DRAM"). Prefetch requests that were dropped report "".
	HitLevel string
}

// Level is anything a cache can forward misses to: another cache or the
// memory backstop adapter.
type Level interface {
	Access(now uint64, req Request) Result
}

// Backstop is the timing interface of main memory.
type Backstop interface {
	// Access returns the cycle at which the block transfer completes.
	Access(now uint64, addr mem.Addr, write bool) (completeAt uint64)
}

// MemoryName is the HitLevel of an access that main memory supplied.
const MemoryName = "DRAM"

// MemoryLevel adapts a Backstop to the Level interface so a cache can sit
// directly on top of DRAM.
type MemoryLevel struct {
	Mem Backstop
}

// Access implements Level.
func (m MemoryLevel) Access(now uint64, req Request) Result {
	done := m.Mem.Access(now, req.Addr, req.Kind == Write)
	return Result{CompleteAt: done, HitLevel: MemoryName}
}

// EvictionListener observes blocks leaving a cache. The Bingo family of
// prefetchers uses LLC evictions as the end-of-region-residency signal.
type EvictionListener interface {
	// OnEviction is called with the block-aligned address of the victim.
	OnEviction(addr mem.Addr)
}

// OutcomeFunc receives the fate of prefetched lines: useful=true when a
// demand access touches a prefetched line for the first time, useful=false
// when a never-touched prefetched line is evicted. core identifies the
// core whose prefetch installed the line. Feedback-directed throttling
// (Srinath et al., HPCA'07 — the paper's reference [41]) is built on this
// signal.
type OutcomeFunc func(core int, useful bool)

// PrefetchProbe observes the full lifecycle of prefetched lines at the
// level the prefetcher fills into. It is richer than OutcomeFunc (which
// only reports useful/unused): the probe also sees redundant drops and
// distinguishes timely from late uses, with the cycle margin attached.
// telemetry.Lifecycle implements it. A probe must be a pure observer —
// the cache behaves identically with or without one.
type PrefetchProbe interface {
	// PrefetchRedundant: a prefetch found its block already present (or
	// in flight) and was dropped. core is the requesting core.
	PrefetchRedundant(core int)
	// PrefetchFill: a prefetch installed a line; its fill is in flight.
	PrefetchFill(core int)
	// PrefetchUse: first demand use of a prefetched line. late reports
	// whether the fill was still in flight (the demand had to wait);
	// cycles is the wait (late) or the fill-completion-to-use margin
	// (timely). core is the core whose prefetch installed the line.
	PrefetchUse(core int, late bool, cycles uint64)
	// PrefetchEvictUnused: a prefetched line was evicted untouched.
	PrefetchEvictUnused(core int)
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency uint64 // cycles, charged on every access to this level
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: associativity must be positive", c.Name)
	}
	if c.Assoc > lru.MaxWays {
		return fmt.Errorf("cache %s: associativity %d above the %d ways a set's recency order ranks",
			c.Name, c.Assoc, lru.MaxWays)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Assoc*mem.BlockSize) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte blocks",
			c.Name, c.SizeBytes, c.Assoc, mem.BlockSize)
	}
	sets := c.SizeBytes / (c.Assoc * mem.BlockSize)
	if !mem.IsPow2(sets) {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Each way is a uint32 tag and a uint64 meta word in two flat arrays,
// and each set has one lru.Order: 12.5 host bytes per way, so a 16-way
// set's tags fill one 64-byte host cache line.
//
// The tag is the block number without its set-index bits, plus one, so 0
// marks an invalid way. The meta word packs the cycle at which the fill
// completes (MSHR semantics), the core whose request installed the line,
// and the dirty and prefetched bits.
const (
	arrivalBits = 48
	arrivalMask = 1<<arrivalBits - 1
	coreShift   = arrivalBits
	coreMask    = 0xff
	dirtyBit    = 1 << 56
	// prefetchedBit: filled by a prefetch and not yet referenced by demand.
	prefetchedBit = 1 << 57
)

func arrivalOf(meta uint64) uint64 { return meta & arrivalMask }

func fillCoreOf(meta uint64) int { return int(meta >> coreShift & coreMask) }

// Stats accumulates per-cache counters. All prefetch-related counters are
// maintained at the level the prefetcher fills into (the LLC in this
// reproduction).
type Stats struct {
	Accesses       uint64 // demand accesses (loads + stores)
	Hits           uint64 // demand hits (including hits on in-flight fills)
	Misses         uint64 // demand misses
	LateHits       uint64 // demand hits that had to wait on an in-flight fill
	PrefetchIssued uint64 // prefetch requests reaching this level
	PrefetchFills  uint64 // prefetches that actually installed a line
	PrefetchHits   uint64 // prefetches dropped because the block was present
	UsefulPrefetch uint64 // prefetched lines referenced by demand before eviction
	LatePrefetch   uint64 // demand hit on a prefetched line still in flight
	UnusedPrefetch uint64 // prefetched lines evicted without any demand reference
	Evictions      uint64
	Writebacks     uint64
}

// Delta returns the counter-wise difference s - prev. Counters are
// monotone between resets, so sampling cumulative Stats and differencing
// with Delta yields exact per-interval counts (the telemetry epoch
// series is built this way).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:       s.Accesses - prev.Accesses,
		Hits:           s.Hits - prev.Hits,
		Misses:         s.Misses - prev.Misses,
		LateHits:       s.LateHits - prev.LateHits,
		PrefetchIssued: s.PrefetchIssued - prev.PrefetchIssued,
		PrefetchFills:  s.PrefetchFills - prev.PrefetchFills,
		PrefetchHits:   s.PrefetchHits - prev.PrefetchHits,
		UsefulPrefetch: s.UsefulPrefetch - prev.UsefulPrefetch,
		LatePrefetch:   s.LatePrefetch - prev.LatePrefetch,
		UnusedPrefetch: s.UnusedPrefetch - prev.UnusedPrefetch,
		Evictions:      s.Evictions - prev.Evictions,
		Writebacks:     s.Writebacks - prev.Writebacks,
	}
}

// MPKI returns misses per kilo-instruction for a run of instr instructions.
func (s Stats) MPKI(instr uint64) float64 {
	if instr == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instr) * 1000
}

// HitRate returns the demand hit ratio.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative level of the hierarchy. Replacement is
// LRU: each set's lru.Order ranks its ways, a touch moves the way to the
// most recent rank, and the victim is the least recent way.
type Cache struct {
	cfg      Config
	ways     int
	setShift uint // log2 of the set count: a tag is block>>setShift + 1
	setMask  uint64
	tags     []uint32    // set*ways+way: set-relative tag, 0 = invalid
	meta     []uint64    // set*ways+way: arrival, fill core, dirty, prefetched
	order    []lru.Order // per set: recency order of its ways
	lower    Level
	wb       writebackLevel // lower, if it accepts writebacks; else nil
	listener EvictionListener
	outcome  OutcomeFunc
	probe    PrefetchProbe
	stats    Stats
	san      sanState // runtime invariant sanitizer (empty without -tags=san)
}

// writebackLevel is a lower level that accepts the dirty blocks a cache
// evicts; a lower level without Writeback drops them.
type writebackLevel interface {
	Writeback(now uint64, addr mem.Addr)
}

// New builds a cache over the given lower level.
func New(cfg Config, lower Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: lower level must not be nil", cfg.Name)
	}
	numSets := cfg.SizeBytes / (cfg.Assoc * mem.BlockSize)
	order := make([]lru.Order, numSets)
	fresh := lru.New(cfg.Assoc)
	for i := range order {
		order[i] = fresh
	}
	wb, _ := lower.(writebackLevel)
	return &Cache{
		cfg:      cfg,
		ways:     cfg.Assoc,
		setShift: mem.Log2(uint64(numSets)),
		setMask:  uint64(numSets - 1),
		tags:     make([]uint32, numSets*cfg.Assoc),
		meta:     make([]uint64, numSets*cfg.Assoc),
		order:    order,
		lower:    lower,
		wb:       wb,
	}, nil
}

// MustNew is New that panics on error; for tests and fixed configurations.
func MustNew(cfg Config, lower Level) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters and clears the prefetch attribution of
// resident lines, so a measurement window only credits (useful) or blames
// (unused) prefetches it issued itself — without this, uses of warm-up
// prefetches would inflate accuracy past 100%. Cache contents are kept.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	for i := range c.meta {
		c.meta[i] &^= prefetchedBit
	}
}

// SetEvictionListener registers the eviction observer (at most one).
func (c *Cache) SetEvictionListener(l EvictionListener) { c.listener = l }

// SetOutcomeFunc registers the prefetch-outcome observer (at most one).
func (c *Cache) SetOutcomeFunc(f OutcomeFunc) { c.outcome = f }

// SetPrefetchProbe registers the lifecycle observer (at most one).
func (c *Cache) SetPrefetchProbe(p PrefetchProbe) { c.probe = p }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.order) }

func (c *Cache) setIndex(block uint64) int { return int(block & c.setMask) }

// tagOf returns block's set-relative tag, or false when it does not fit
// the 32-bit tag field.
func (c *Cache) tagOf(block uint64) (uint32, bool) {
	t := block>>c.setShift + 1
	return uint32(t), t <= math.MaxUint32
}

// mustTagOf is tagOf for an access that may install the block: a tag
// that does not fit is a fault of the configuration.
func (c *Cache) mustTagOf(block uint64) uint32 {
	t, ok := c.tagOf(block)
	if !ok {
		c.overflow("block", block)
	}
	return t
}

// blockOf inverts tagOf for a valid way of set si.
func (c *Cache) blockOf(si int, tag uint32) uint64 {
	return uint64(tag-1)<<c.setShift | uint64(si)
}

// pack builds the meta word of a line being installed.
func (c *Cache) pack(arrival uint64, core int, flags uint64) uint64 {
	if arrival > arrivalMask {
		c.overflow("arrival cycle", arrival)
	}
	if uint(core) > coreMask {
		c.overflow("fill core", uint64(core))
	}
	return arrival | uint64(core)<<coreShift | flags
}

// overflow panics: a simulated value outgrew its field in the packed way
// layout, so the cache can no longer represent the machine.
func (c *Cache) overflow(field string, v uint64) {
	panic(fmt.Sprintf("cache %s: %s %#x outgrows its field in the way layout", c.cfg.Name, field, v))
}

// lookup returns the way holding tag in set si, or -1.
func (c *Cache) lookup(si int, tag uint32) int {
	base := si * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// Contains reports whether the block holding addr is present (regardless of
// in-flight status). It does not perturb replacement state.
func (c *Cache) Contains(addr mem.Addr) bool {
	block := addr.BlockNumber()
	tag, ok := c.tagOf(block)
	return ok && c.lookup(c.setIndex(block), tag) >= 0
}

// Access performs a demand or prefetch access. now is the cycle the request
// arrives at this level.
func (c *Cache) Access(now uint64, req Request) Result {
	block := req.Addr.BlockNumber()
	si := c.setIndex(block)
	tag := c.mustTagOf(block)
	ready := now + c.cfg.HitLatency

	if req.Kind == Prefetch {
		return c.accessPrefetch(now, ready, req, si, tag)
	}

	c.stats.Accesses++
	if w := c.lookup(si, tag); w >= 0 {
		m := &c.meta[si*c.ways+w]
		arrival := arrivalOf(*m)
		c.stats.Hits++
		complete := ready
		if arrival > ready { // fill still in flight: coalesce
			complete = arrival
			c.stats.LateHits++
			if *m&prefetchedBit != 0 {
				c.stats.LatePrefetch++
			}
		}
		if *m&prefetchedBit != 0 {
			c.stats.UsefulPrefetch++
			*m &^= prefetchedBit
			if c.probe != nil {
				// Late: the demand waits out the in-flight fill; the wait is
				// how late the prefetch was. Timely: the margin is the slack
				// between fill completion and this use's data availability.
				if late := arrival > ready; late {
					c.probe.PrefetchUse(fillCoreOf(*m), true, arrival-ready)
				} else {
					c.probe.PrefetchUse(fillCoreOf(*m), false, ready-arrival)
				}
			}
			if c.outcome != nil {
				c.outcome(fillCoreOf(*m), true)
			}
		}
		if req.Kind == Write {
			*m |= dirtyBit
		}
		c.touch(si, w)
		res := Result{CompleteAt: complete, HitLevel: c.cfg.Name}
		c.sanAfterAccess(now, ready, si, res)
		return res
	}

	// Demand miss: fetch from below, install with future arrival.
	c.stats.Misses++
	lowerRes := c.lower.Access(ready, req)
	var flags uint64
	if req.Kind == Write {
		flags = dirtyBit
	}
	w := c.installLine(now, si, tag, c.pack(lowerRes.CompleteAt, req.Core, flags))
	c.touch(si, w)
	res := Result{CompleteAt: lowerRes.CompleteAt, HitLevel: lowerRes.HitLevel}
	c.sanAfterAccess(now, ready, si, res)
	return res
}

func (c *Cache) accessPrefetch(now, ready uint64, req Request, si int, tag uint32) Result {
	c.stats.PrefetchIssued++
	if c.lookup(si, tag) >= 0 {
		// Already present (or in flight): redundant prefetch, drop it.
		c.stats.PrefetchHits++
		if c.probe != nil {
			c.probe.PrefetchRedundant(req.Core)
		}
		res := Result{CompleteAt: ready, HitLevel: c.cfg.Name}
		c.sanAfterAccess(now, ready, si, res)
		return res
	}
	lowerRes := c.lower.Access(ready, req)
	w := c.installLine(now, si, tag, c.pack(lowerRes.CompleteAt, req.Core, prefetchedBit))
	c.touch(si, w)
	c.stats.PrefetchFills++
	if c.probe != nil {
		c.probe.PrefetchFill(req.Core)
	}
	res := Result{CompleteAt: lowerRes.CompleteAt, HitLevel: lowerRes.HitLevel}
	c.sanAfterAccess(now, ready, si, res)
	return res
}

// touch records a reference to way w of set si.
func (c *Cache) touch(si, w int) {
	c.order[si] = c.order[si].Touch(w, c.ways)
}

// installLine places a line into set si, evicting the least recently
// used way when no way is invalid, and returns the way used.
func (c *Cache) installLine(now uint64, si int, tag uint32, meta uint64) int {
	base := si * c.ways
	w := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == 0 {
			w = i
			break
		}
	}
	if w < 0 {
		w = c.order[si].LRU()
		c.sanCheckVictim(now, si, w)
		c.evict(now, si, w)
	}
	c.sanAtInstall(now, si, tag, meta)
	c.tags[base+w], c.meta[base+w] = tag, meta
	return w
}

// evict invalidates valid way w of set si, reporting the block.
func (c *Cache) evict(now uint64, si, w int) {
	i := si*c.ways + w
	m := c.meta[i]
	addr := mem.Addr(c.blockOf(si, c.tags[i]) << mem.BlockShift)
	c.stats.Evictions++
	if m&prefetchedBit != 0 {
		c.stats.UnusedPrefetch++
		if c.probe != nil {
			c.probe.PrefetchEvictUnused(fillCoreOf(m))
		}
		if c.outcome != nil {
			c.outcome(fillCoreOf(m), false)
		}
	}
	if m&dirtyBit != 0 {
		c.stats.Writebacks++
		if c.wb != nil {
			c.wb.Writeback(now, addr)
		}
	}
	if c.listener != nil {
		c.listener.OnEviction(addr)
	}
	c.tags[i] = 0
}

// Writeback accepts a dirty block from the level above. Writebacks are
// modelled as fills that do not affect demand statistics.
func (c *Cache) Writeback(now uint64, addr mem.Addr) {
	block := addr.BlockNumber()
	si := c.setIndex(block)
	tag := c.mustTagOf(block)
	if w := c.lookup(si, tag); w >= 0 {
		c.meta[si*c.ways+w] |= dirtyBit
		c.touch(si, w)
		return
	}
	w := c.installLine(now, si, tag, c.pack(now, 0, dirtyBit))
	c.touch(si, w)
}

// Flush invalidates every line, reporting each valid block to the eviction
// listener. It models the end of a measurement epoch.
func (c *Cache) Flush(now uint64) {
	for si := range c.order {
		for w := 0; w < c.ways; w++ {
			if c.tags[si*c.ways+w] != 0 {
				c.evict(now, si, w)
			}
		}
	}
}
