package telemetry

// LifecycleStats counts one core's (or, summed, one system's)
// prefetched blocks through the lifecycle state machine:
//
//	predicted ──(queue full)──▶ QueueDropped
//	    │
//	    ▼ issued into the cache
//	  lookup ──(block present)──▶ Redundant
//	    │
//	    ▼ Fills (line installed, fill in flight)
//	    ├──(demand use, fill already complete)──▶ Timely
//	    ├──(demand use, fill still in MSHR)─────▶ Late
//	    ├──(evicted, never used)────────────────▶ UnusedEvicted
//	    └──(still resident, unused)─────────────▶ InFlight
//
// Every predicted address lands in exactly one terminal bucket, so the
// counters conserve exactly:
//
//	Issued == QueueDropped + Redundant + Fills
//	Fills  == Timely + Late + UnusedEvicted + InFlight
//
// InFlight is maintained as an explicit up/down counter (not derived),
// which is what makes Conserves a real invariant check rather than a
// tautology.
type LifecycleStats struct {
	Issued        uint64 // addresses the prefetcher predicted
	QueueDropped  uint64 // dropped by the full per-core prefetch queue
	Redundant     uint64 // block already present (or in flight) at the fill level
	Fills         uint64 // lines actually installed by a prefetch
	Timely        uint64 // first demand use after the fill completed
	Late          uint64 // first demand use while the fill was still in flight
	UnusedEvicted uint64 // evicted without any demand use
	InFlight      uint64 // filled, still resident, not yet used
}

// Add returns the element-wise sum.
func (s LifecycleStats) Add(o LifecycleStats) LifecycleStats {
	return LifecycleStats{
		Issued:        s.Issued + o.Issued,
		QueueDropped:  s.QueueDropped + o.QueueDropped,
		Redundant:     s.Redundant + o.Redundant,
		Fills:         s.Fills + o.Fills,
		Timely:        s.Timely + o.Timely,
		Late:          s.Late + o.Late,
		UnusedEvicted: s.UnusedEvicted + o.UnusedEvicted,
		InFlight:      s.InFlight + o.InFlight,
	}
}

// Conserves reports whether the lifecycle identities hold: every
// predicted address is in exactly one terminal bucket.
func (s LifecycleStats) Conserves() bool {
	return s.Issued == s.QueueDropped+s.Redundant+s.Fills &&
		s.Fills == s.Timely+s.Late+s.UnusedEvicted+s.InFlight
}

// frac returns n/d, or 0 for an empty denominator.
func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// TimelyFraction is timely uses over prefetch fills — the survey's
// timeliness metric.
func (s LifecycleStats) TimelyFraction() float64 { return frac(s.Timely, s.Fills) }

// LateFraction is late uses over prefetch fills.
func (s LifecycleStats) LateFraction() float64 { return frac(s.Late, s.Fills) }

// UnusedFraction is unused evictions over prefetch fills.
func (s LifecycleStats) UnusedFraction() float64 { return frac(s.UnusedEvicted, s.Fills) }

// Used returns the demand-used fills (timely + late).
func (s LifecycleStats) Used() uint64 { return s.Timely + s.Late }

// Lifecycle tracks per-core prefetch lifecycle counters. It implements
// the structural interface cache.PrefetchProbe for the cache-side
// events and takes the queue-side events (Predicted, QueueDropped)
// directly from the system's issue path. It belongs to the simulation
// goroutine: counters are plain integers on the hot path, and the
// Collector publishes a snapshot of them at epoch boundaries for
// concurrent observers.
type Lifecycle struct {
	cores []LifecycleStats

	// marginCycles sums, over timely uses, the cycles between fill
	// completion and the use's data availability; lateCycles sums, over
	// late uses, the cycles the demand access waited on the in-flight
	// fill. They are system-wide and stay out of LifecycleStats, whose
	// exported JSON carries the counts (Timely, Late) only.
	marginCycles uint64
	lateCycles   uint64
}

// NewLifecycle returns a tracker for the given core count.
func NewLifecycle(cores int) *Lifecycle {
	return &Lifecycle{cores: make([]LifecycleStats, cores)}
}

// Reset zeroes every counter. The system calls this at the warm-up to
// measurement transition, mirroring the cache stats reset (which also
// clears the prefetched attribution of resident lines, so no stale
// warm-up fill can reach a terminal bucket after the reset).
func (l *Lifecycle) Reset() {
	for i := range l.cores {
		l.cores[i] = LifecycleStats{}
	}
	l.marginCycles, l.lateCycles = 0, 0
}

// WaitCycles returns the summed use margin of timely uses and the summed
// wait of late uses; divide by Totals().Timely and .Late for the means.
func (l *Lifecycle) WaitCycles() (margin, late uint64) {
	return l.marginCycles, l.lateCycles
}

// NumCores returns the tracked core count.
func (l *Lifecycle) NumCores() int { return len(l.cores) }

// Core returns core i's counters.
func (l *Lifecycle) Core(i int) LifecycleStats { return l.cores[i] }

// Totals sums all cores.
func (l *Lifecycle) Totals() LifecycleStats {
	var t LifecycleStats
	for _, c := range l.cores {
		t = t.Add(c)
	}
	return t
}

// ok guards against out-of-range core indices (a probe wired to a
// mis-attributed line); such events are dropped rather than crashing
// the run.
func (l *Lifecycle) ok(core int) bool { return core >= 0 && core < len(l.cores) }

// Predicted records n addresses predicted by core's prefetcher.
func (l *Lifecycle) Predicted(core, n int) {
	if l.ok(core) {
		l.cores[core].Issued += uint64(n)
	}
}

// QueueDropped records n predictions dropped by the full prefetch queue.
func (l *Lifecycle) QueueDropped(core, n int) {
	if l.ok(core) {
		l.cores[core].QueueDropped += uint64(n)
	}
}

// PrefetchRedundant implements cache.PrefetchProbe: the block was
// already present (or in flight) at the fill level.
func (l *Lifecycle) PrefetchRedundant(core int) {
	if l.ok(core) {
		l.cores[core].Redundant++
	}
}

// PrefetchFill implements cache.PrefetchProbe: a line was installed.
func (l *Lifecycle) PrefetchFill(core int) {
	if l.ok(core) {
		l.cores[core].Fills++
		l.cores[core].InFlight++
	}
}

// PrefetchUse implements cache.PrefetchProbe: first demand use of a
// prefetched line. late reports whether the fill was still in flight;
// cycles is the late wait (late) or the completion-to-use margin
// (timely).
func (l *Lifecycle) PrefetchUse(core int, late bool, cycles uint64) {
	if !l.ok(core) {
		return
	}
	c := &l.cores[core]
	if c.InFlight > 0 {
		c.InFlight--
	}
	if late {
		c.Late++
		l.lateCycles += cycles
		return
	}
	c.Timely++
	l.marginCycles += cycles
}

// PrefetchEvictUnused implements cache.PrefetchProbe: a prefetched line
// left the cache without ever being used.
func (l *Lifecycle) PrefetchEvictUnused(core int) {
	if !l.ok(core) {
		return
	}
	c := &l.cores[core]
	if c.InFlight > 0 {
		c.InFlight--
	}
	c.UnusedEvicted++
}
