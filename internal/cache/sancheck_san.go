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
func (c *Cache) sanAtInstall(now uint64, si int, ln line) {
	if !san.Enabled() {
		return
	}
	if ln.arrival < now {
		san.Failf(c.cfg.Name, now, san.CacheMSHR,
			"installing block %#x in set %d with arrival cycle %d < now %d", ln.tag, si, ln.arrival, now)
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
	if !c.sets[si][w].valid {
		san.Failf(c.cfg.Name, now, san.CacheLRU,
			"LRU chose invalid way %d of full set %d as victim", w, si)
	}
}

// sanCheckSet verifies structural set invariants: unique tags, occupancy
// within associativity, and well-formed replacement state.
func (c *Cache) sanCheckSet(now uint64, si int) {
	set := c.sets[si]
	valid := 0
	for i := range set {
		if !set[i].valid {
			continue
		}
		valid++
		for j := i + 1; j < len(set); j++ {
			if set[j].valid && set[j].tag == set[i].tag {
				san.Failf(c.cfg.Name, now, san.CacheDupTag,
					"set %d holds block %#x in ways %d and %d", si, set[i].tag, i, j)
			}
		}
	}
	if valid > c.cfg.Assoc {
		san.Failf(c.cfg.Name, now, san.CacheOccupancy,
			"set %d holds %d valid lines, associativity %d", si, valid, c.cfg.Assoc)
	}
	c.sanCheckLRU(now, si)
}

// sanCheckLRU verifies the LRU recency stack of one set: stamps never run
// ahead of the LRU clock and touched ways carry distinct stamps (a
// duplicate stamp would make the victim choice ambiguous — a malformed
// recency stack).
func (c *Cache) sanCheckLRU(now uint64, si int) {
	stamps := c.lruStamp[si*c.cfg.Assoc : (si+1)*c.cfg.Assoc]
	for i, ti := range stamps {
		if ti > c.lruClock {
			san.Failf(c.cfg.Name, now, san.CacheLRU,
				"set %d way %d recency stamp %d ahead of LRU clock %d", si, i, ti, c.lruClock)
		}
		if ti == 0 {
			continue // never touched
		}
		for j := i + 1; j < len(stamps); j++ {
			if stamps[j] == ti {
				san.Failf(c.cfg.Name, now, san.CacheLRU,
					"set %d ways %d and %d share recency stamp %d", si, i, j, ti)
			}
		}
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
	for si := range c.sets {
		set := c.sets[si]
		for w := range set {
			if set[w].valid && set[w].prefetched {
				resident++
			}
		}
	}
	s := c.stats
	if s.PrefetchFills != s.UsefulPrefetch+s.UnusedPrefetch+resident {
		san.Failf(c.cfg.Name, now, san.CachePrefetchAccounting,
			"fills %d ≠ useful %d + unused %d + resident prefetched %d",
			s.PrefetchFills, s.UsefulPrefetch, s.UnusedPrefetch, resident)
	}
}
