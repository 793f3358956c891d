package telemetry

// Collector accumulates the epoch time-series of one run and owns the
// run's metric Registry. Attach it to a system with
// system.EnableTelemetry; the system then drives the cycle-sampling
// callbacks below. A Collector observes exactly the measurement window:
// nothing is recorded during warm-up, and the final partial epoch is
// flushed when measurement completes, so the series always sums to the
// end-of-run totals.
//
// Like the simulator components it observes, a Collector belongs to the
// simulation goroutine; only the Registry's metric values are safe for
// concurrent readers (the debug HTTP server).
type Collector struct {
	epochCycles uint64

	// Workload and Prefetcher label exported artifacts; they never
	// influence collection.
	Workload   string
	Prefetcher string

	reg      *Registry
	lc       *Lifecycle
	margins  *Histogram
	lateness *Histogram

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
	reg := NewRegistry()
	c := &Collector{
		epochCycles: epochCycles,
		reg:         reg,
		margins:     reg.Histogram("prefetch.use_margin_cycles"),
		lateness:    reg.Histogram("prefetch.late_wait_cycles"),
	}
	return c
}

// EpochCycles returns the sampling period.
func (c *Collector) EpochCycles() uint64 { return c.epochCycles }

// Registry returns the collector's metric registry.
func (c *Collector) Registry() *Registry { return c.reg }

// Lifecycle returns the bound lifecycle tracker (nil for a baseline
// run with no prefetcher).
func (c *Collector) Lifecycle() *Lifecycle { return c.lc }

// BindLifecycle points the collector at the system's lifecycle tracker
// and wires the margin/lateness distributions into it.
func (c *Collector) BindLifecycle(lc *Lifecycle) {
	c.lc = lc
	if lc != nil {
		lc.AttachHistograms(c.margins, c.lateness)
	}
}

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
	// The lifecycle probes fire in every phase, so any warm-up
	// prefetch-use observations are discarded here: the distributions
	// cover exactly the measurement window, like the series and counters.
	c.margins.reset()
	c.lateness.reset()
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

// Finish flushes the final (usually partial) epoch and mirrors the
// run's totals into the registry. Called once when measurement ends;
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

// mirror copies the cumulative totals and lifecycle counters into the
// registry. It runs at every epoch close, so a concurrent observer (the
// debug server) sees live counters, and once more at Finish, so the
// exported metric snapshot agrees with the series.
func (c *Collector) mirror() {
	r := c.reg
	r.Counter("sim.epochs").Store(uint64(len(c.series)))
	r.Counter("sim.measured_cycles").Store(c.MeasuredCycles())
	r.Counter("sim.instructions").Store(c.cum.Instructions())
	llc := c.cum.LLC
	r.Counter("llc.accesses").Store(llc.Accesses)
	r.Counter("llc.hits").Store(llc.Hits)
	r.Counter("llc.misses").Store(llc.Misses)
	r.Counter("llc.late_hits").Store(llc.LateHits)
	r.Counter("llc.prefetch_issued").Store(llc.PrefetchIssued)
	r.Counter("llc.prefetch_fills").Store(llc.PrefetchFills)
	r.Counter("llc.prefetch_redundant").Store(llc.PrefetchHits)
	r.Counter("llc.useful_prefetch").Store(llc.UsefulPrefetch)
	r.Counter("llc.late_prefetch").Store(llc.LatePrefetch)
	r.Counter("llc.unused_prefetch").Store(llc.UnusedPrefetch)
	r.Counter("llc.evictions").Store(llc.Evictions)
	r.Counter("llc.writebacks").Store(llc.Writebacks)
	d := c.cum.DRAM
	r.Counter("dram.reads").Store(d.Reads)
	r.Counter("dram.writes").Store(d.Writes)
	r.Counter("dram.row_hits").Store(d.RowHits)
	r.Counter("dram.row_empty").Store(d.RowEmpty)
	r.Counter("dram.row_conflicts").Store(d.RowConflicts)
	r.Counter("dram.bus_busy").Store(d.BusBusy)
	if c.lc != nil {
		t := c.lc.Totals()
		r.Counter("prefetch.issued").Store(t.Issued)
		r.Counter("prefetch.queue_dropped").Store(t.QueueDropped)
		r.Counter("prefetch.redundant").Store(t.Redundant)
		r.Counter("prefetch.fills").Store(t.Fills)
		r.Counter("prefetch.timely").Store(t.Timely)
		r.Counter("prefetch.late").Store(t.Late)
		r.Counter("prefetch.unused_evicted").Store(t.UnusedEvicted)
		r.Gauge("prefetch.in_flight").Set(int64(t.InFlight))
	}
}
