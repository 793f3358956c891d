package telemetry

import (
	"sort"
	"sync/atomic"
)

// Collector accumulates the epoch time-series of one run and publishes
// the run's metric Snapshot. Attach it to a system with
// system.EnableTelemetry; the system then drives the cycle-sampling
// callbacks below. A Collector observes exactly the measurement window:
// nothing is recorded during warm-up, and the final partial epoch is
// flushed when measurement completes, so the series always sums to the
// end-of-run totals.
//
// Like the simulator components it observes, a Collector belongs to the
// simulation goroutine; only Metrics is safe for concurrent readers (the
// debug HTTP server).
type Collector struct {
	epochCycles uint64

	// Workload and Prefetcher label exported artifacts; they never
	// influence collection.
	Workload   string
	Prefetcher string

	lc *Lifecycle
	// metrics is the snapshot mirror last published. Each one is built
	// whole and never written again, so a concurrent reader that loads
	// the pointer sees a complete, consistent set of values.
	metrics atomic.Pointer[Snapshot]

	begun      bool
	finished   bool
	startCycle uint64 // measurement start
	lastEnd    uint64 // end cycle of the last emitted epoch
	nextAt     uint64 // next nominal epoch edge
	cum        Totals // cumulative totals at lastEnd
	series     []EpochSample
}

// NewCollector returns a collector sampling every epochCycles simulated
// cycles (DefaultEpochCycles when <= 0).
func NewCollector(epochCycles uint64) *Collector {
	if epochCycles == 0 {
		epochCycles = DefaultEpochCycles
	}
	return &Collector{epochCycles: epochCycles}
}

// EpochCycles returns the sampling period.
func (c *Collector) EpochCycles() uint64 { return c.epochCycles }

// Metrics returns the metric snapshot published at the last epoch close
// (or at Finish), or an empty one before the first. It is safe to call
// from any goroutine; the returned map must not be modified.
func (c *Collector) Metrics() Snapshot {
	if s := c.metrics.Load(); s != nil {
		return *s
	}
	return Snapshot{}
}

// Lifecycle returns the bound lifecycle tracker (nil for a baseline
// run with no prefetcher).
func (c *Collector) Lifecycle() *Lifecycle { return c.lc }

// BindLifecycle points the collector at the system's lifecycle tracker.
func (c *Collector) BindLifecycle(lc *Lifecycle) { c.lc = lc }

// Begun reports whether measurement sampling has started.
func (c *Collector) Begun() bool { return c.begun }

// Finished reports whether the series has been flushed.
func (c *Collector) Finished() bool { return c.finished }

// Begin starts the series at the measurement-start cycle. The caller
// guarantees all simulation stats were just reset, so the cumulative
// baseline is zero.
func (c *Collector) Begin(cycle uint64) {
	if c.begun {
		panic("telemetry: Collector.Begin called twice")
	}
	c.begun = true
	c.startCycle = cycle
	c.lastEnd = cycle
	c.nextAt = cycle + c.epochCycles
	c.cum = Totals{}
}

// ShouldSample reports whether the clock has crossed the next epoch
// edge. It is the hot-loop guard, kept to two compares.
func (c *Collector) ShouldSample(cycle uint64) bool {
	return c.begun && !c.finished && cycle >= c.nextAt
}

// NextSampleAt returns the next nominal epoch edge, or ^uint64(0) when
// the collector is not currently sampling (before Begin, after Finish).
// The event engine clamps its clock skips to this edge so the epoch
// series closes at exactly the cycles a lockstep run closes at; without
// the clamp a jump across an edge would merge epochs into one wider one.
func (c *Collector) NextSampleAt() uint64 {
	if !c.begun || c.finished {
		return ^uint64(0)
	}
	return c.nextAt
}

// Sample closes the current epoch at cycle given the cumulative totals
// at that boundary.
func (c *Collector) Sample(cycle uint64, cum Totals) {
	if !c.begun || c.finished || cycle <= c.lastEnd {
		return
	}
	c.emit(cycle, cum)
	for c.nextAt <= cycle {
		c.nextAt += c.epochCycles
	}
}

func (c *Collector) emit(cycle uint64, cum Totals) {
	c.series = append(c.series, EpochSample{
		Index:      len(c.series),
		StartCycle: c.lastEnd,
		EndCycle:   cycle,
		Totals:     cum.delta(c.cum),
	})
	c.cum = cum
	c.lastEnd = cycle
	c.mirror()
}

// Finish flushes the final (usually partial) epoch and publishes the
// run's totals. Called once when measurement ends;
// further calls are no-ops.
func (c *Collector) Finish(cycle uint64, cum Totals) {
	if !c.begun || c.finished {
		return
	}
	if cycle > c.lastEnd {
		c.emit(cycle, cum)
	}
	c.finished = true
	c.mirror()
}

// Series returns the epoch samples (read-only; owned by the collector).
func (c *Collector) Series() []EpochSample { return c.series }

// MeasuredCycles returns the sampled span's width.
func (c *Collector) MeasuredCycles() uint64 { return c.lastEnd - c.startCycle }

// SummedTotals re-adds every epoch's deltas; by construction it equals
// the cumulative totals at the last epoch edge. Exposed for the
// series-sums-to-totals property test.
func (c *Collector) SummedTotals() Totals {
	var sum Totals
	for _, e := range c.series {
		sum = sum.add(e.Totals)
	}
	return sum
}

// mirror publishes a fresh Snapshot of the cumulative totals and the
// lifecycle counters. It runs at every epoch close, so a concurrent
// observer (the debug server) sees live counters, and once more at
// Finish, so the exported snapshot agrees with the series. The two
// "prefetch.*_cycles" pairs are present even without a lifecycle (a
// baseline run), at zero.
func (c *Collector) mirror() {
	llc, d := c.cum.LLC, c.cum.DRAM
	s := Snapshot{
		"sim.epochs":             int64(len(c.series)),
		"sim.measured_cycles":    int64(c.MeasuredCycles()),
		"sim.instructions":       int64(c.cum.Instructions()),
		"llc.accesses":           int64(llc.Accesses),
		"llc.hits":               int64(llc.Hits),
		"llc.misses":             int64(llc.Misses),
		"llc.late_hits":          int64(llc.LateHits),
		"llc.prefetch_issued":    int64(llc.PrefetchIssued),
		"llc.prefetch_fills":     int64(llc.PrefetchFills),
		"llc.prefetch_redundant": int64(llc.PrefetchHits),
		"llc.useful_prefetch":    int64(llc.UsefulPrefetch),
		"llc.late_prefetch":      int64(llc.LatePrefetch),
		"llc.unused_prefetch":    int64(llc.UnusedPrefetch),
		"llc.evictions":          int64(llc.Evictions),
		"llc.writebacks":         int64(llc.Writebacks),
		"dram.reads":             int64(d.Reads),
		"dram.writes":            int64(d.Writes),
		"dram.row_hits":          int64(d.RowHits),
		"dram.row_empty":         int64(d.RowEmpty),
		"dram.row_conflicts":     int64(d.RowConflicts),
		"dram.bus_busy":          int64(d.BusBusy),
	}
	var t LifecycleStats
	var margin, late uint64
	if c.lc != nil {
		t = c.lc.Totals()
		margin, late = c.lc.WaitCycles()
		s["prefetch.issued"] = int64(t.Issued)
		s["prefetch.queue_dropped"] = int64(t.QueueDropped)
		s["prefetch.redundant"] = int64(t.Redundant)
		s["prefetch.fills"] = int64(t.Fills)
		s["prefetch.timely"] = int64(t.Timely)
		s["prefetch.late"] = int64(t.Late)
		s["prefetch.unused_evicted"] = int64(t.UnusedEvicted)
		s["prefetch.in_flight"] = int64(t.InFlight)
	}
	s["prefetch.use_margin_cycles.count"] = int64(t.Timely)
	s["prefetch.use_margin_cycles.sum"] = int64(margin)
	s["prefetch.late_wait_cycles.count"] = int64(t.Late)
	s["prefetch.late_wait_cycles.sum"] = int64(late)
	c.metrics.Store(&s)
}

// Snapshot is a point-in-time flattened view of a run's metrics, keyed by
// stable lowercase dotted names such as "llc.misses" or
// "prefetch.use_margin_cycles.sum". Stable names are what let exported
// snapshots be compared across runs and releases. Values are int64 so
// one type covers counts and the one up/down value (prefetch.in_flight);
// counts never come near the int64 range (the largest grow with
// simulated cycles).
type Snapshot map[string]int64

// Names returns the snapshot's keys in sorted order, for deterministic
// rendering.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
