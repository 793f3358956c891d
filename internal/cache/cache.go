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

// line is one way of a set: 32 bytes, so a 16-way set is 512 contiguous
// bytes and the LRU stamp a probe reads sits beside the tag it matched.
type line struct {
	tag        uint64 // block number
	arrival    uint64 // cycle at which the fill completes (MSHR semantics)
	stamp      uint64 // LRU clock value of the way's last touch (0: never touched)
	fillCore   int32  // core whose request installed the line
	valid      bool
	dirty      bool
	prefetched bool // filled by a prefetch and not yet referenced by demand
}

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
// LRU: every touch stamps the way with the next value of a per-cache
// clock, and the victim is the way with the oldest stamp.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lruClock uint64 // counts touches; each line's stamp is a value of it
	lower    Level
	listener EvictionListener
	outcome  OutcomeFunc
	probe    PrefetchProbe
	stats    Stats
	san      sanState // runtime invariant sanitizer (empty without -tags=san)
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
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(numSets - 1),
		lower:   lower,
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
	for si := range c.sets {
		for w := range c.sets[si] {
			c.sets[si][w].prefetched = false
		}
	}
}

// SetEvictionListener registers the eviction observer (at most one).
func (c *Cache) SetEvictionListener(l EvictionListener) { c.listener = l }

// SetOutcomeFunc registers the prefetch-outcome observer (at most one).
func (c *Cache) SetOutcomeFunc(f OutcomeFunc) { c.outcome = f }

// SetPrefetchProbe registers the lifecycle observer (at most one).
func (c *Cache) SetPrefetchProbe(p PrefetchProbe) { c.probe = p }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

func (c *Cache) setIndex(block uint64) int { return int(block & c.setMask) }

// lookup returns the way holding block in set si, or -1.
func (c *Cache) lookup(si int, block uint64) int {
	set := c.sets[si]
	for w := range set {
		if set[w].valid && set[w].tag == block {
			return w
		}
	}
	return -1
}

// Contains reports whether the block holding addr is present (regardless of
// in-flight status). It does not perturb replacement state.
func (c *Cache) Contains(addr mem.Addr) bool {
	block := addr.BlockNumber()
	return c.lookup(c.setIndex(block), block) >= 0
}

// Access performs a demand or prefetch access. now is the cycle the request
// arrives at this level.
func (c *Cache) Access(now uint64, req Request) Result {
	block := req.Addr.BlockNumber()
	si := c.setIndex(block)
	ready := now + c.cfg.HitLatency

	if req.Kind == Prefetch {
		return c.accessPrefetch(now, ready, req, si, block)
	}

	c.stats.Accesses++
	if w := c.lookup(si, block); w >= 0 {
		ln := &c.sets[si][w]
		c.stats.Hits++
		complete := ready
		if ln.arrival > ready { // fill still in flight: coalesce
			complete = ln.arrival
			c.stats.LateHits++
			if ln.prefetched {
				c.stats.LatePrefetch++
			}
		}
		if ln.prefetched {
			c.stats.UsefulPrefetch++
			ln.prefetched = false
			if c.probe != nil {
				// Late: the demand waits out the in-flight fill; the wait is
				// how late the prefetch was. Timely: the margin is the slack
				// between fill completion and this use's data availability.
				if late := ln.arrival > ready; late {
					c.probe.PrefetchUse(int(ln.fillCore), true, ln.arrival-ready)
				} else {
					c.probe.PrefetchUse(int(ln.fillCore), false, ready-ln.arrival)
				}
			}
			if c.outcome != nil {
				c.outcome(int(ln.fillCore), true)
			}
		}
		if req.Kind == Write {
			ln.dirty = true
		}
		c.touch(si, w)
		res := Result{CompleteAt: complete, HitLevel: c.cfg.Name}
		c.sanAfterAccess(now, ready, si, res)
		return res
	}

	// Demand miss: fetch from below, install with future arrival.
	c.stats.Misses++
	lowerRes := c.lower.Access(ready, req)
	w := c.installLine(now, si, line{
		tag:      block,
		valid:    true,
		dirty:    req.Kind == Write,
		arrival:  lowerRes.CompleteAt,
		fillCore: int32(req.Core),
	})
	c.touch(si, w)
	res := Result{CompleteAt: lowerRes.CompleteAt, HitLevel: lowerRes.HitLevel}
	c.sanAfterAccess(now, ready, si, res)
	return res
}

func (c *Cache) accessPrefetch(now, ready uint64, req Request, si int, block uint64) Result {
	c.stats.PrefetchIssued++
	if w := c.lookup(si, block); w >= 0 {
		// Already present (or in flight): redundant prefetch, drop it.
		c.stats.PrefetchHits++
		_ = w
		if c.probe != nil {
			c.probe.PrefetchRedundant(req.Core)
		}
		res := Result{CompleteAt: ready, HitLevel: c.cfg.Name}
		c.sanAfterAccess(now, ready, si, res)
		return res
	}
	lowerRes := c.lower.Access(ready, req)
	w := c.installLine(now, si, line{
		tag:        block,
		valid:      true,
		prefetched: true,
		arrival:    lowerRes.CompleteAt,
		fillCore:   int32(req.Core),
	})
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
	c.lruClock++
	c.sets[si][w].stamp = c.lruClock
}

// victim returns the least recently touched way of set si.
func (c *Cache) victim(si int) int {
	set := c.sets[si]
	best, bestTime := 0, set[0].stamp
	for w := 1; w < len(set); w++ {
		if t := set[w].stamp; t < bestTime {
			best, bestTime = w, t
		}
	}
	return best
}

// installLine places ln into set si, evicting a victim if necessary, and
// returns the way used.
func (c *Cache) installLine(now uint64, si int, ln line) int {
	set := c.sets[si]
	w := -1
	for i := range set {
		if !set[i].valid {
			w = i
			break
		}
	}
	if w < 0 {
		w = c.victim(si)
		c.sanCheckVictim(now, si, w)
		victim := &set[w]
		c.evict(now, si, victim)
	}
	c.sanAtInstall(now, si, ln)
	set[w] = ln
	return w
}

func (c *Cache) evict(now uint64, si int, victim *line) {
	c.stats.Evictions++
	if victim.prefetched {
		c.stats.UnusedPrefetch++
		if c.probe != nil {
			c.probe.PrefetchEvictUnused(int(victim.fillCore))
		}
		if c.outcome != nil {
			c.outcome(int(victim.fillCore), false)
		}
	}
	if victim.dirty {
		c.stats.Writebacks++
		if wb, ok := c.lower.(interface {
			Writeback(now uint64, addr mem.Addr)
		}); ok {
			wb.Writeback(now, mem.Addr(victim.tag<<mem.BlockShift))
		}
	}
	if c.listener != nil {
		c.listener.OnEviction(mem.Addr(victim.tag << mem.BlockShift))
	}
	victim.valid = false
}

// Writeback accepts a dirty block from the level above. Writebacks are
// modelled as fills that do not affect demand statistics.
func (c *Cache) Writeback(now uint64, addr mem.Addr) {
	block := addr.BlockNumber()
	si := c.setIndex(block)
	if w := c.lookup(si, block); w >= 0 {
		c.sets[si][w].dirty = true
		c.touch(si, w)
		return
	}
	w := c.installLine(now, si, line{tag: block, valid: true, dirty: true, arrival: now})
	c.touch(si, w)
}

// Flush invalidates every line, reporting each valid block to the eviction
// listener. It models the end of a measurement epoch.
func (c *Cache) Flush(now uint64) {
	for si := range c.sets {
		for w := range c.sets[si] {
			ln := &c.sets[si][w]
			if ln.valid {
				c.evict(now, si, ln)
			}
		}
	}
}
