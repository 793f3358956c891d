package telemetry

import (
	"fmt"
	"strings"

	"bingo/internal/checkpoint"
	"bingo/internal/cpu"
)

// Checkpoint persistence. A Collector's state rides inside the system
// checkpoint so a paused-and-resumed run reports the identical epoch
// series a straight-through run would. The layout is column-oriented
// (one array per field), which keeps the checkpoint schema token list
// independent of the number of epochs, cores, and registered metrics —
// the golden-schema test in the harness pins the resulting layout.

// SaveState serialises the collector. It is deterministic: metric names
// are sorted, series are stored in order.
func (c *Collector) SaveState(w *checkpoint.Writer) error {
	w.Version(1)
	w.U64(c.epochCycles)
	w.Int(c.cores)
	w.Bool(c.begun)
	w.Bool(c.finished)
	w.U64(c.startCycle)
	w.U64(c.lastEnd)
	w.U64(c.nextAt)
	saveTotalsRows(w, []Totals{c.cum}, c.cores)
	starts := make([]uint64, len(c.series))
	ends := make([]uint64, len(c.series))
	rows := make([]Totals, len(c.series))
	for i, e := range c.series {
		starts[i] = e.StartCycle
		ends[i] = e.EndCycle
		rows[i] = e.Totals
	}
	w.U64s(starts)
	w.U64s(ends)
	saveTotalsRows(w, rows, c.cores)
	c.reg.saveState(w)
	return w.Err()
}

// LoadState restores a collector saved by SaveState into c, which must
// be configured identically: same epoch length, same core count (bound
// via BindCores). Restoring a mismatched collector is an error — the
// series would silently diverge from the original run's otherwise.
func (c *Collector) LoadState(r *checkpoint.Reader) error {
	return c.loadState(r, true)
}

// DiscardState consumes (and validates the framing of) a collector
// state section without keeping it. The system uses it when a
// checkpoint carries telemetry state but the restoring run has no
// collector attached.
func DiscardState(r *checkpoint.Reader) error {
	return NewCollector(0).loadState(r, false)
}

func (c *Collector) loadState(r *checkpoint.Reader, strict bool) error {
	r.Version(1)
	epochCycles := r.U64()
	cores := r.Int()
	begun := r.Bool()
	finished := r.Bool()
	startCycle := r.U64()
	lastEnd := r.U64()
	nextAt := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if strict {
		if epochCycles != c.epochCycles {
			return fmt.Errorf("telemetry: checkpoint epoch length %d, collector configured for %d", epochCycles, c.epochCycles)
		}
		if cores != c.cores {
			return fmt.Errorf("telemetry: checkpoint covers %d cores, collector bound to %d", cores, c.cores)
		}
		if c.begun {
			return fmt.Errorf("telemetry: restore into a collector that already began sampling")
		}
	}
	if cores < 0 {
		return fmt.Errorf("telemetry: checkpoint core count %d negative", cores)
	}
	cums, err := loadTotalsRows(r, 1, cores)
	if err != nil {
		return err
	}
	starts := r.U64s()
	ends := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(starts) != len(ends) {
		return fmt.Errorf("telemetry: checkpoint epoch bounds disagree: %d starts, %d ends", len(starts), len(ends))
	}
	rows, err := loadTotalsRows(r, len(starts), cores)
	if err != nil {
		return err
	}
	for i := range starts {
		if ends[i] < starts[i] {
			return fmt.Errorf("telemetry: checkpoint epoch %d ends before it starts", i)
		}
	}
	reg := NewRegistry()
	if err := reg.loadState(r); err != nil {
		return err
	}
	if !strict {
		return nil
	}

	// Commit: adopt the decoded state and replay the registry into the
	// collector's own (so the histogram instances the lifecycle holds
	// stay the live ones).
	c.begun = begun
	c.finished = finished
	c.startCycle = startCycle
	c.lastEnd = lastEnd
	c.nextAt = nextAt
	c.cum = cums[0]
	c.series = c.series[:0]
	for i := range starts {
		c.series = append(c.series, EpochSample{Index: i, StartCycle: starts[i], EndCycle: ends[i], Totals: rows[i]})
	}
	reg.copyInto(c.reg)
	return nil
}

// saveTotalsRows writes rows as column arrays: 5 CPU columns flattened
// row-major over cores, then the 12 LLC and 6 DRAM columns. Missing
// per-core entries (a zero Totals) pad as zeros.
func saveTotalsRows(w *checkpoint.Writer, rows []Totals, cores int) {
	cpuCol := func(get func(cpu.Stats) uint64) {
		flat := make([]uint64, 0, len(rows)*cores)
		for _, row := range rows {
			for ci := 0; ci < cores; ci++ {
				var s cpu.Stats
				if ci < len(row.PerCore) {
					s = row.PerCore[ci]
				}
				flat = append(flat, get(s))
			}
		}
		w.U64s(flat)
	}
	cpuCol(func(s cpu.Stats) uint64 { return s.Instructions })
	cpuCol(func(s cpu.Stats) uint64 { return s.MemOps })
	cpuCol(func(s cpu.Stats) uint64 { return s.Loads })
	cpuCol(func(s cpu.Stats) uint64 { return s.Stores })
	cpuCol(func(s cpu.Stats) uint64 { return s.MemStall })
	col := func(get func(Totals) uint64) {
		vals := make([]uint64, len(rows))
		for i, row := range rows {
			vals[i] = get(row)
		}
		w.U64s(vals)
	}
	col(func(t Totals) uint64 { return t.LLC.Accesses })
	col(func(t Totals) uint64 { return t.LLC.Hits })
	col(func(t Totals) uint64 { return t.LLC.Misses })
	col(func(t Totals) uint64 { return t.LLC.LateHits })
	col(func(t Totals) uint64 { return t.LLC.PrefetchIssued })
	col(func(t Totals) uint64 { return t.LLC.PrefetchFills })
	col(func(t Totals) uint64 { return t.LLC.PrefetchHits })
	col(func(t Totals) uint64 { return t.LLC.UsefulPrefetch })
	col(func(t Totals) uint64 { return t.LLC.LatePrefetch })
	col(func(t Totals) uint64 { return t.LLC.UnusedPrefetch })
	col(func(t Totals) uint64 { return t.LLC.Evictions })
	col(func(t Totals) uint64 { return t.LLC.Writebacks })
	col(func(t Totals) uint64 { return t.DRAM.Reads })
	col(func(t Totals) uint64 { return t.DRAM.Writes })
	col(func(t Totals) uint64 { return t.DRAM.RowHits })
	col(func(t Totals) uint64 { return t.DRAM.RowEmpty })
	col(func(t Totals) uint64 { return t.DRAM.RowConflicts })
	col(func(t Totals) uint64 { return t.DRAM.BusBusy })
}

// loadTotalsRows reads n rows written by saveTotalsRows.
//
//obs:write checkpoint restore rebuilds the snapshot rows it returns; Totals embeds the core stats types, so the type-based owner looks like simulator state
func loadTotalsRows(r *checkpoint.Reader, n, cores int) ([]Totals, error) {
	rows := make([]Totals, n)
	for i := range rows {
		rows[i].PerCore = make([]cpu.Stats, cores)
	}
	cpuCol := func(set func(*cpu.Stats, uint64)) error {
		flat := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if len(flat) != n*cores {
			return fmt.Errorf("telemetry: checkpoint cpu column holds %d values, want %d", len(flat), n*cores)
		}
		for i := range rows {
			for ci := 0; ci < cores; ci++ {
				set(&rows[i].PerCore[ci], flat[i*cores+ci])
			}
		}
		return nil
	}
	if err := cpuCol(func(s *cpu.Stats, v uint64) { s.Instructions = v }); err != nil {
		return nil, err
	}
	if err := cpuCol(func(s *cpu.Stats, v uint64) { s.MemOps = v }); err != nil {
		return nil, err
	}
	if err := cpuCol(func(s *cpu.Stats, v uint64) { s.Loads = v }); err != nil {
		return nil, err
	}
	if err := cpuCol(func(s *cpu.Stats, v uint64) { s.Stores = v }); err != nil {
		return nil, err
	}
	if err := cpuCol(func(s *cpu.Stats, v uint64) { s.MemStall = v }); err != nil {
		return nil, err
	}
	col := func(set func(*Totals, uint64)) error {
		vals := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if len(vals) != n {
			return fmt.Errorf("telemetry: checkpoint column holds %d values, want %d", len(vals), n)
		}
		for i := range rows {
			set(&rows[i], vals[i])
		}
		return nil
	}
	for _, step := range []func(*Totals, uint64){
		func(t *Totals, v uint64) { t.LLC.Accesses = v },
		func(t *Totals, v uint64) { t.LLC.Hits = v },
		func(t *Totals, v uint64) { t.LLC.Misses = v },
		func(t *Totals, v uint64) { t.LLC.LateHits = v },
		func(t *Totals, v uint64) { t.LLC.PrefetchIssued = v },
		func(t *Totals, v uint64) { t.LLC.PrefetchFills = v },
		func(t *Totals, v uint64) { t.LLC.PrefetchHits = v },
		func(t *Totals, v uint64) { t.LLC.UsefulPrefetch = v },
		func(t *Totals, v uint64) { t.LLC.LatePrefetch = v },
		func(t *Totals, v uint64) { t.LLC.UnusedPrefetch = v },
		func(t *Totals, v uint64) { t.LLC.Evictions = v },
		func(t *Totals, v uint64) { t.LLC.Writebacks = v },
		func(t *Totals, v uint64) { t.DRAM.Reads = v },
		func(t *Totals, v uint64) { t.DRAM.Writes = v },
		func(t *Totals, v uint64) { t.DRAM.RowHits = v },
		func(t *Totals, v uint64) { t.DRAM.RowEmpty = v },
		func(t *Totals, v uint64) { t.DRAM.RowConflicts = v },
		func(t *Totals, v uint64) { t.DRAM.BusBusy = v },
	} {
		if err := col(step); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// joinNames packs a sorted name list into one string column; the names
// themselves cannot contain the separator (validName forbids it).
func joinNames(names []string) string { return strings.Join(names, "\n") }

func splitNames(joined string) []string {
	if joined == "" {
		return nil
	}
	return strings.Split(joined, "\n")
}

// saveState serialises every registered metric, names sorted.
func (r *Registry) saveState(w *checkpoint.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cn := sortedKeys(r.counters)
	w.String(joinNames(cn))
	cvals := make([]uint64, len(cn))
	for i, name := range cn {
		cvals[i] = r.counters[name].Value()
	}
	w.U64s(cvals)
	gn := sortedKeys(r.gauges)
	w.String(joinNames(gn))
	gvals := make([]int64, len(gn))
	for i, name := range gn {
		gvals[i] = r.gauges[name].Value()
	}
	w.I64s(gvals)
	hn := sortedKeys(r.hists)
	w.String(joinNames(hn))
	counts := make([]uint64, 0, len(hn)*HistogramBuckets)
	sums := make([]uint64, len(hn))
	ns := make([]uint64, len(hn))
	for i, name := range hn {
		h := r.hists[name]
		b := h.Buckets()
		counts = append(counts, b[:]...)
		sums[i] = h.Sum()
		ns[i] = h.Count()
	}
	w.U64s(counts)
	w.U64s(sums)
	w.U64s(ns)
}

// loadState restores metrics into r, creating them by name. Malformed
// names or inconsistent column lengths are errors, never panics — the
// input is an untrusted file.
func (r *Registry) loadState(rd *checkpoint.Reader) error {
	cn := splitNames(rd.String())
	cvals := rd.U64s()
	gn := splitNames(rd.String())
	gvals := rd.I64s()
	hn := splitNames(rd.String())
	counts := rd.U64s()
	sums := rd.U64s()
	ns := rd.U64s()
	if err := rd.Err(); err != nil {
		return err
	}
	if len(cvals) != len(cn) || len(gvals) != len(gn) ||
		len(counts) != len(hn)*HistogramBuckets || len(sums) != len(hn) || len(ns) != len(hn) {
		return fmt.Errorf("telemetry: checkpoint registry columns inconsistent")
	}
	seen := make(map[string]bool, len(cn)+len(gn)+len(hn))
	for _, names := range [][]string{cn, gn, hn} {
		for _, name := range names {
			if !validName(name) {
				return fmt.Errorf("telemetry: checkpoint metric name %q invalid", name)
			}
			if seen[name] {
				return fmt.Errorf("telemetry: checkpoint metric name %q duplicated", name)
			}
			seen[name] = true
		}
	}
	for i, name := range cn {
		r.Counter(name).Store(cvals[i])
	}
	for i, name := range gn {
		r.Gauge(name).Set(gvals[i])
	}
	for i, name := range hn {
		var b [HistogramBuckets]uint64
		copy(b[:], counts[i*HistogramBuckets:(i+1)*HistogramBuckets])
		r.Histogram(name).restore(b, sums[i], ns[i])
	}
	return nil
}

// copyInto replays r's metrics into dst, preserving dst's existing
// metric instances (pointers held elsewhere keep working). It takes
// dst's lock while holding r's, so r must be a fresh registry, distinct
// from dst and unreachable from any other goroutine: Collector.loadState
// decodes one, copies it into the collector's own, and drops it. No
// caller can therefore hold dst's lock while waiting for r's, and the
// nesting cannot form a cycle.
func (r *Registry) copyInto(dst *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		dst.Counter(name).Store(c.Value())
	}
	for name, g := range r.gauges {
		dst.Gauge(name).Set(g.Value())
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		dst.Histogram(name).restore(h.Buckets(), h.Sum(), h.Count())
	}
}

// reset zeroes the histogram (the measurement-start boundary).
func (h *Histogram) reset() {
	h.restore([HistogramBuckets]uint64{}, 0, 0)
}

// restore overwrites the histogram's state (checkpoint restore only).
func (h *Histogram) restore(counts [HistogramBuckets]uint64, sum, n uint64) {
	for i := range h.counts {
		h.counts[i].Store(counts[i])
	}
	h.sum.Store(sum)
	h.n.Store(n)
}
