package harness

import (
	"fmt"
	"math"
	"sync"

	"bingo/internal/core"
	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// Matrix memoises every simulation of the experiment suite, keyed by
// CellKey — registry (workload × prefetcher) runs, custom-config variants
// (Figure 6's history sweep, the ablations), and runs under modified
// system options. Experiments that share runs — Figures 7, 8, and 9 are
// three views of the same matrix — pay for each simulation once.
//
// Matrix is safe for concurrent use: Get and the other accessors may be
// called from any number of goroutines. Two callers requesting the same
// cell share one in-flight simulation (singleflight) instead of racing
// or duplicating work, which is what lets the warm pool simulate cells
// out of order while renderers still observe exactly one deterministic
// result per cell.
type Matrix struct {
	opts RunOptions
	// plan is non-nil only on the recording matrix PlanExperiments
	// builds: ExecuteCell then records cells instead of simulating them.
	plan *cellPlan

	mu          sync.Mutex
	cells       map[CellKey]*cellState
	stats       []CellStat
	failed      int // cell runs that returned an error (Progress)
	trackAllocs bool

	// Telemetry export configuration (SetTelemetry): observability only,
	// simulated results never depend on it.
	telDir   string
	telEpoch uint64
}

// NewMatrix creates an empty memoised run matrix.
func NewMatrix(opts RunOptions) *Matrix {
	return &Matrix{opts: opts, cells: make(map[CellKey]*cellState)}
}

// Options returns the base run options every non-variant cell uses.
func (m *Matrix) Options() RunOptions { return m.opts }

// Get runs (or recalls) workload w under the named prefetcher ("none" for
// the baseline).
func (m *Matrix) Get(w workloads.Spec, prefetcher string) (system.Results, error) {
	key := CellKey{Workload: w.Name, Prefetcher: prefetcher}
	res, _, err := m.ExecuteCell(key, m.opts)
	return res, err
}

// GetOpts runs (or recalls) workload w under the named prefetcher with
// modified run options. variant must uniquely encode the deviation from
// the base options (e.g. "queue=16") so the cell cannot collide with a
// base-options run.
func (m *Matrix) GetOpts(w workloads.Spec, prefetcher, variant string, opts RunOptions) (system.Results, error) {
	key := CellKey{Workload: w.Name, Prefetcher: prefetcher, Variant: variant}
	res, _, err := m.ExecuteCell(key, opts)
	return res, err
}

// Baseline is Get(w, "none").
func (m *Matrix) Baseline(w workloads.Spec) (system.Results, error) { return m.Get(w, "none") }

// ---------------------------------------------------------------------------
// Table I — evaluation parameters.

// Table1 renders the simulated system configuration (no simulation runs).
func Table1(opts RunOptions) Table {
	c := opts.System
	t := Table{Title: "Table I: Evaluation Parameters", Headers: []string{"Parameter", "Value"}}
	t.AddRow("Chip", fmt.Sprintf("%d cores, 4 GHz", c.NumCores))
	t.AddRow("Cores", fmt.Sprintf("%d-wide OoO, %d-entry ROB, %d-entry LSQ",
		c.Core.Width, c.Core.ROBSize, c.Core.LSQSize))
	t.AddRow("L1-D", fmt.Sprintf("%d KB, %d-way, %d-cycle hit",
		c.L1.SizeBytes/1024, c.L1.Assoc, c.L1.HitLatency))
	t.AddRow("LLC", fmt.Sprintf("%d MB, %d-way, %d-cycle hit",
		c.LLC.SizeBytes/(1<<20), c.LLC.Assoc, c.LLC.HitLatency))
	t.AddRow("Main Memory", fmt.Sprintf("%d channels, %d banks/channel, ~60 ns zero-load, 37.5 GB/s peak",
		c.DRAM.Channels, c.DRAM.BanksPerChannel))
	t.AddRow("OS Pages", fmt.Sprintf("%d KB, random first-touch translation", c.PageBytes/1024))
	t.AddRow("Budgets", fmt.Sprintf("%d K warm-up + %d K measured instructions/core",
		c.WarmupInstr/1000, c.MeasureInstr/1000))
	return t
}

// ---------------------------------------------------------------------------
// Table II — workloads and baseline MPKI.

// Table2 measures baseline LLC MPKI for every workload.
func Table2(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Table II: Application Parameters",
		Headers: []string{"Application", "LLC MPKI (paper)", "LLC MPKI (measured)", "Description"},
	}
	for _, w := range workloads.All() {
		base, err := m.Baseline(w)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(w.Name, fmt.Sprintf("%.1f", w.PaperMPKI), fmt.Sprintf("%.1f", base.LLCMPKI()), w.Description)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — accuracy and match probability of single-event heuristics.

// fig2Cell runs (or recalls) the single-event prefetcher for kind on w.
func (m *Matrix) fig2Cell(kind prefetch.EventKind, w workloads.Spec) (system.Results, EventCounters, error) {
	key := CellKey{Workload: w.Name, Prefetcher: fmt.Sprintf("multievent1[event=%s]", kind)}
	res, aux, err := m.ExecuteCell(key, m.opts)
	if err != nil {
		return system.Results{}, EventCounters{}, err
	}
	return res, aux.(EventCounters), nil
}

// Fig2 runs one single-event spatial prefetcher per event kind over every
// workload and reports the aggregate prefetch accuracy and history match
// probability — the longest-to-shortest tension motivating Bingo.
// Aggregates are ratio-of-sums across workloads (per-workload means would
// be poisoned by workloads where a rare event almost never fires).
func Fig2(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Figure 2: Accuracy and Match Probability per Event Heuristic (aggregate across workloads)",
		Headers: []string{"Event", "Accuracy", "Match Probability"},
	}
	for _, kind := range prefetch.AllEvents() {
		var useful, fills, predicted, lookups uint64
		for _, w := range workloads.All() {
			res, c, err := m.fig2Cell(kind, w)
			if err != nil {
				return Table{}, err
			}
			useful += res.LLC.UsefulPrefetch
			fills += res.LLC.PrefetchFills
			predicted += c.Predicted
			lookups += c.Lookups
		}
		t.AddRow(kind.String(), pct(ratio(useful, fills)), pct(ratio(predicted, lookups)))
	}
	t.AddNote("events ordered longest (most accurate, least matching) to shortest")
	return t, nil
}

// multiEventLookups sums prediction/lookup counters across a system's
// per-core MultiEvent instances.
func multiEventLookups(pfs []prefetch.Prefetcher) (predicted, lookups uint64) {
	for _, p := range pfs {
		if me, ok := p.(*core.MultiEvent); ok {
			predicted += me.Predicted
			lookups += me.Lookups
		}
	}
	return predicted, lookups
}

// ratio divides safely.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ---------------------------------------------------------------------------
// Figure 3 — coverage & accuracy vs number of cascaded events.

// Fig3 sweeps the TAGE-like cascade from one event (PC+Address) to all
// five, reporting mean coverage and accuracy.
func Fig3(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Figure 3: Coverage and Accuracy vs Number of Events",
		Headers: []string{"Events", "Coverage", "Accuracy"},
	}
	for n := 1; n <= 5; n++ {
		var covSum float64
		var useful, fills uint64
		cnt := 0
		for _, w := range workloads.All() {
			base, err := m.Baseline(w)
			if err != nil {
				return Table{}, err
			}
			res, err := m.Get(w, fmt.Sprintf("multievent%d", n))
			if err != nil {
				return Table{}, err
			}
			covSum += res.CoverageVsBaseline(base.LLC.Misses)
			useful += res.LLC.UsefulPrefetch
			fills += res.LLC.PrefetchFills
			cnt++
		}
		t.AddRow(fmt.Sprintf("%d", n), pct(covSum/float64(cnt)), pct(ratio(useful, fills)))
	}
	t.AddNote("1 event = PC+Address only; 5 events adds PC+Offset, Address, PC, Offset")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — redundancy in cascaded TAGE-like history tables.

// fig4Cell runs (or recalls) the redundancy-probing dual-event prefetcher
// on w.
func (m *Matrix) fig4Cell(w workloads.Spec) (RedundancyCounters, error) {
	key := CellKey{Workload: w.Name, Prefetcher: "multievent2[probe]"}
	_, aux, err := m.ExecuteCell(key, m.opts)
	if err != nil {
		return RedundancyCounters{}, err
	}
	return aux.(RedundancyCounters), nil
}

// Fig4 runs the dual-table probe and reports, per workload, the fraction
// of dual-hit lookups whose long and short predictions were identical.
func Fig4(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Figure 4: Redundancy in TAGE-Like History Metadata",
		Headers: []string{"Workload", "Redundancy"},
	}
	var sum float64
	for _, w := range workloads.All() {
		c, err := m.fig4Cell(w)
		if err != nil {
			return Table{}, err
		}
		red := 0.0
		if c.BothHit > 0 {
			red = float64(c.Identical) / float64(c.BothHit)
		}
		sum += red
		t.AddRow(w.Name, pct(red))
	}
	t.AddRow("Average", pct(sum/float64(len(workloads.All()))))
	t.AddNote("redundancy = dual-hit lookups where PC+Address and PC+Offset tables offer the identical footprint")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — Bingo miss coverage vs history table capacity.

// Fig6Sizes is the paper's sweep of history-table entry counts. It is
// immutable after init: planning and rendering both read it and must
// see the same sweep.
var Fig6Sizes = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}

// fig6Cell runs (or recalls) Bingo with a resized history table on w.
func (m *Matrix) fig6Cell(w workloads.Spec, size int) (system.Results, error) {
	key := CellKey{Workload: w.Name, Prefetcher: fmt.Sprintf("bingo[hist=%d]", size)}
	res, _, err := m.ExecuteCell(key, m.opts)
	return res, err
}

// Fig6 sweeps Bingo's history capacity and reports per-workload coverage.
func Fig6(m *Matrix, sizes []int) (Table, error) {
	if len(sizes) == 0 {
		sizes = Fig6Sizes
	}
	headers := []string{"Workload"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("%dK", s/1024))
	}
	t := Table{Title: "Figure 6: Bingo Miss Coverage vs History Table Entries", Headers: headers}
	for _, w := range workloads.All() {
		base, err := m.Baseline(w)
		if err != nil {
			return Table{}, err
		}
		row := []string{w.Name}
		for _, size := range sizes {
			res, err := m.fig6Cell(w, size)
			if err != nil {
				return Table{}, err
			}
			row = append(row, pct(res.CoverageVsBaseline(base.LLC.Misses)))
		}
		t.AddRow(row...)
	}
	t.AddNote("the paper picks 16K entries (~119 KB): coverage plateaus beyond it")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — coverage and overprediction of all prefetchers.

// Fig7 reports covered / uncovered / overpredicted misses (normalised to
// the baseline miss count) for each workload and prefetcher.
func Fig7(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Figure 7: Coverage and Overprediction",
		Headers: []string{"Workload", "Prefetcher", "Coverage", "Uncovered", "Overprediction"},
	}
	pfs := PaperPrefetchers()
	covSum := make(map[string]float64)
	overSum := make(map[string]float64)
	for _, w := range workloads.All() {
		base, err := m.Baseline(w)
		if err != nil {
			return Table{}, err
		}
		for _, pf := range pfs {
			res, err := m.Get(w, pf)
			if err != nil {
				return Table{}, err
			}
			cov := res.CoverageVsBaseline(base.LLC.Misses)
			over := res.Overprediction(base.LLC.Misses)
			covSum[pf] += cov
			overSum[pf] += over
			t.AddRow(w.Name, pf, pct(cov), pct(1-cov), pct(over))
		}
	}
	n := float64(len(workloads.All()))
	for _, pf := range pfs {
		t.AddRow("Average", pf, pct(covSum[pf]/n), pct(1-covSum[pf]/n), pct(overSum[pf]/n))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 8 — performance improvement over the no-prefetcher baseline.

// Fig8 reports throughput speedups per workload and the geometric mean.
func Fig8(m *Matrix) (Table, error) {
	pfs := PaperPrefetchers()
	headers := append([]string{"Workload"}, pfs...)
	t := Table{Title: "Figure 8: Performance Improvement over No Prefetching", Headers: headers}
	logsum := make(map[string]float64)
	for _, w := range workloads.All() {
		base, err := m.Baseline(w)
		if err != nil {
			return Table{}, err
		}
		row := []string{w.Name}
		for _, pf := range pfs {
			res, err := m.Get(w, pf)
			if err != nil {
				return Table{}, err
			}
			sp := res.Throughput() / base.Throughput()
			logsum[pf] += math.Log(sp)
			row = append(row, speedupPct(sp))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	n := float64(len(workloads.All()))
	for _, pf := range pfs {
		row = append(row, speedupPct(math.Exp(logsum[pf]/n)))
	}
	t.AddRow(row...)
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — performance density.

// Fig9 converts Figure 8's speedups plus each prefetcher's storage budget
// into performance-density improvements using the area model.
func Fig9(m *Matrix, area AreaModel) (Table, error) {
	t := Table{
		Title:   "Figure 9: Performance Density Improvement",
		Headers: []string{"Prefetcher", "Storage/core", "GMean Speedup", "Perf Density Improvement"},
	}
	for _, pf := range PaperPrefetchers() {
		var logsum float64
		storage := 0
		for _, w := range workloads.All() {
			base, err := m.Baseline(w)
			if err != nil {
				return Table{}, err
			}
			res, err := m.Get(w, pf)
			if err != nil {
				return Table{}, err
			}
			logsum += math.Log(res.Throughput() / base.Throughput())
			storage = res.StorageBytes
		}
		speedup := math.Exp(logsum / float64(len(workloads.All())))
		density := area.DensityImprovement(speedup, storage)
		t.AddRow(pf, fmt.Sprintf("%.1f KB", float64(storage)/1024), speedupPct(speedup), speedupPct(density))
	}
	t.AddNote("area model: %.1f mm2 baseline chip (4 cores, 8 MB LLC, uncore); prefetcher SRAM charged per KB", area.BaselineMM2())
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — ISO-degree comparison.

// fig10Variants lists the original and aggressive prefetcher variants of
// the ISO-degree comparison.
var fig10Variants = []string{"bop", "bop-aggr", "spp", "spp-aggr", "vldp", "vldp-aggr", "ampm", "sms", "bingo"}

// Fig10 compares the original and aggressive (unthrottled-degree) variants
// of the SHH prefetchers against Bingo, reporting speedup plus the
// coverage/overprediction callouts of the paper's figure.
func Fig10(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Figure 10: ISO-Degree Comparison",
		Headers: []string{"Prefetcher", "GMean Speedup", "Coverage", "Overprediction"},
	}
	for _, pf := range fig10Variants {
		var logsum, covSum, overSum float64
		for _, w := range workloads.All() {
			base, err := m.Baseline(w)
			if err != nil {
				return Table{}, err
			}
			res, err := m.Get(w, pf)
			if err != nil {
				return Table{}, err
			}
			logsum += math.Log(res.Throughput() / base.Throughput())
			covSum += res.CoverageVsBaseline(base.LLC.Misses)
			overSum += res.Overprediction(base.LLC.Misses)
		}
		n := float64(len(workloads.All()))
		t.AddRow(pf, speedupPct(math.Exp(logsum/n)), pct(covSum/n), pct(overSum/n))
	}
	t.AddNote("aggr = BOP/VLDP degree 32, SPP confidence threshold 1%% (paper §VI-E)")
	return t, nil
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper.

// AblateVote sweeps Bingo's short-match vote threshold.
func AblateVote(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Ablation: Bingo Vote Threshold",
		Headers: []string{"Threshold", "GMean Speedup", "Coverage", "Overprediction"},
	}
	for _, th := range voteThresholds {
		row, err := ablationRow(m, fmt.Sprintf("%.0f%%", th*100), voteCellLabel(th))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	// The rejected most-recent heuristic for reference.
	row, err := ablationRow(m, "most-recent", "bingo[recent]")
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}

// voteThresholds is the vote-ablation sweep (0.20 is the paper's choice).
var voteThresholds = []float64{0.10, 0.20, 0.33, 0.50, 1.00}

func voteCellLabel(th float64) string { return fmt.Sprintf("bingo[vote=%.2f]", th) }

// AblateRegion sweeps Bingo's spatial region size.
func AblateRegion(m *Matrix) (Table, error) {
	t := Table{
		Title:   "Ablation: Bingo Region Size",
		Headers: []string{"Region", "GMean Speedup", "Coverage", "Overprediction"},
	}
	for _, size := range regionSizes {
		row, err := ablationRow(m, fmt.Sprintf("%d KB", size/1024), regionCellLabel(size))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// regionSizes is the region-size ablation sweep (2 KB is the paper's).
var regionSizes = []uint64{1024, 2048, 4096}

func regionCellLabel(size uint64) string { return fmt.Sprintf("bingo[region=%d]", size) }

// variantCell runs (or recalls) a custom-config prefetcher labelled pf on
// w under the matrix's base options. The label itself encodes the
// configuration (see CellRunner), so the identical cell is reproducible
// from the key alone.
func (m *Matrix) variantCell(w workloads.Spec, pf string) (system.Results, error) {
	res, _, err := m.ExecuteCell(CellKey{Workload: w.Name, Prefetcher: pf}, m.opts)
	return res, err
}

// ablationRow runs a Bingo variant over all workloads and summarises it.
// An empty cellLabel means the registry's default Bingo; otherwise the
// variant is memoised in m under the cellLabel prefetcher name, whose
// bracketed argument encodes the configuration.
func ablationRow(m *Matrix, label, cellLabel string) ([]string, error) {
	var logsum, covSum, overSum float64
	for _, w := range workloads.All() {
		base, err := m.Baseline(w)
		if err != nil {
			return nil, err
		}
		var res system.Results
		if cellLabel == "" {
			res, err = m.Get(w, "bingo")
		} else {
			res, err = m.variantCell(w, cellLabel)
		}
		if err != nil {
			return nil, err
		}
		logsum += math.Log(res.Throughput() / base.Throughput())
		covSum += res.CoverageVsBaseline(base.LLC.Misses)
		overSum += res.Overprediction(base.LLC.Misses)
	}
	n := float64(len(workloads.All()))
	return []string{label, speedupPct(math.Exp(logsum / n)), pct(covSum / n), pct(overSum / n)}, nil
}
