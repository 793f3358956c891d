//go:build san

package cache

import "bingo/internal/san"

// sanState is the per-cache checker state of the runtime invariant
// sanitizer (build tag `san`). All checks are allocation-free on the
// healthy path; see internal/san for the catalog and failure semantics.
type sanState struct {
	lastAccess uint64 // most recent access cycle (SAN-CACHE-CLOCK)
	events     uint64 // accesses since the last deep sweep
}

// sanAfterAccess runs the O(assoc²) per-access checks and, every
// san.DeepInterval accesses, the O(cache-size) accounting sweep.
func (c *Cache) sanAfterAccess(now, ready uint64, si int, res Result) {
	if !san.Enabled() {
		return
	}
	if now < c.san.lastAccess {
		san.Failf(c.cfg.Name, now, san.CacheClock,
			"access at cycle %d after an access at cycle %d", now, c.san.lastAccess)
	}
	c.san.lastAccess = now
	if res.CompleteAt < ready {
		san.Failf(c.cfg.Name, now, san.CacheMSHR,
			"completion cycle %d earlier than now+hit latency = %d (fill arrived in the past)",
			res.CompleteAt, ready)
	}
	c.sanCheckSet(now, si)
	c.sanCheckEvents(now)
	c.san.events++
	if c.san.events >= san.DeepInterval() {
		c.san.events = 0
		c.sanDeepCheck(now)
	}
}

// sanAtInstall verifies MSHR fill semantics at line-install time: a fill's
// arrival cycle may be in the future (in-flight) but never in the past.
func (c *Cache) sanAtInstall(now uint64, si int, tag uint32, meta uint64) {
	if !san.Enabled() {
		return
	}
	if arrival := arrivalOf(meta); arrival < now {
		san.Failf(c.cfg.Name, now, san.CacheMSHR,
			"installing block %#x in set %d with arrival cycle %d < now %d", c.blockOf(si, tag), si, arrival, now)
	}
}

// sanCheckVictim verifies LRU replacement returned an in-range,
// currently valid way (victim is only consulted when the set is full).
func (c *Cache) sanCheckVictim(now uint64, si, w int) {
	if !san.Enabled() {
		return
	}
	if w < 0 || w >= c.cfg.Assoc {
		san.Failf(c.cfg.Name, now, san.CacheLRU,
			"LRU victim way %d out of range [0,%d) for set %d", w, c.cfg.Assoc, si)
	}
	if c.tags[si*c.ways+w] == 0 {
		san.Failf(c.cfg.Name, now, san.CacheLRU,
			"LRU chose invalid way %d of full set %d as victim", w, si)
	}
}

// sanCheckSet verifies structural set invariants: unique tags, occupancy
// within associativity, and a well-formed recency order.
func (c *Cache) sanCheckSet(now uint64, si int) {
	set := c.tags[si*c.ways : (si+1)*c.ways]
	valid := 0
	for i, t := range set {
		if t == 0 {
			continue
		}
		valid++
		for j := i + 1; j < len(set); j++ {
			if set[j] == t {
				san.Failf(c.cfg.Name, now, san.CacheDupTag,
					"set %d holds block %#x in ways %d and %d", si, c.blockOf(si, t), i, j)
			}
		}
	}
	if valid > c.cfg.Assoc {
		san.Failf(c.cfg.Name, now, san.CacheOccupancy,
			"set %d holds %d valid lines, associativity %d", si, valid, c.cfg.Assoc)
	}
	c.sanCheckLRU(now, si)
}

// sanCheckLRU verifies the recency order of one set ranks each way
// exactly once: a way ranked twice, or a lane naming no way, would make
// the victim choice wrong (a malformed recency stack).
func (c *Cache) sanCheckLRU(now uint64, si int) {
	if o := c.order[si]; !o.Valid(c.ways) {
		san.Failf(c.cfg.Name, now, san.CacheLRU,
			"set %d recency order %#x does not rank each of its %d ways exactly once", si, uint64(o), c.ways)
	}
}

// sanCheckEvents verifies per-access event conservation on the counters.
func (c *Cache) sanCheckEvents(now uint64) {
	s := c.stats
	if s.Accesses != s.Hits+s.Misses {
		san.Failf(c.cfg.Name, now, san.CacheEvents,
			"demand accesses %d ≠ hits %d + misses %d", s.Accesses, s.Hits, s.Misses)
	}
	if s.PrefetchIssued != s.PrefetchFills+s.PrefetchHits {
		san.Failf(c.cfg.Name, now, san.CacheEvents,
			"prefetches issued %d ≠ fills %d + redundant drops %d", s.PrefetchIssued, s.PrefetchFills, s.PrefetchHits)
	}
	if s.LateHits > s.Hits {
		san.Failf(c.cfg.Name, now, san.CacheEvents, "late hits %d exceed hits %d", s.LateHits, s.Hits)
	}
	if s.LatePrefetch > s.UsefulPrefetch {
		san.Failf(c.cfg.Name, now, san.CachePrefetchAccounting,
			"late prefetch hits %d exceed useful prefetches %d", s.LatePrefetch, s.UsefulPrefetch)
	}
	if s.UsefulPrefetch+s.UnusedPrefetch > s.PrefetchFills {
		san.Failf(c.cfg.Name, now, san.CachePrefetchAccounting,
			"prefetch outcomes useful %d + unused %d exceed fills %d",
			s.UsefulPrefetch, s.UnusedPrefetch, s.PrefetchFills)
	}
}

// sanDeepCheck recounts the prefetched bits of every resident line and
// closes the prefetch-accounting conservation equation: every fill is
// eventually counted exactly once as useful or unused, and until then is
// resident with its prefetched bit set.
func (c *Cache) sanDeepCheck(now uint64) {
	var resident uint64
	for i, t := range c.tags {
		if t != 0 && c.meta[i]&prefetchedBit != 0 {
			resident++
		}
	}
	s := c.stats
	if s.PrefetchFills != s.UsefulPrefetch+s.UnusedPrefetch+resident {
		san.Failf(c.cfg.Name, now, san.CachePrefetchAccounting,
			"fills %d ≠ useful %d + unused %d + resident prefetched %d",
			s.PrefetchFills, s.UsefulPrefetch, s.UnusedPrefetch, resident)
	}
}
