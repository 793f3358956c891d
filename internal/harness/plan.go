package harness

import (
	"fmt"

	"bingo/internal/prefetch"
	"bingo/internal/workloads"
)

// This file enumerates, per experiment, every matrix cell the renderer
// will request, as PlannedCells for the parallel engine. Each planned
// cell's thunk calls the identical memoised Matrix accessor the renderer
// calls, so the enumeration can never produce a *different* simulation —
// at worst an out-of-date enumerator warms too few cells (they then run
// lazily, sequentially, at render time) or too many (wasted work), never
// wrong output.

// planned builds the schedulable unit for one (key, options) cell.
func (m *Matrix) planned(key CellKey, opts RunOptions) PlannedCell {
	return PlannedCell{
		Key: key,
		run: func() error { _, _, err := m.ExecuteCell(key, opts); return err },
	}
}

// getCell plans a registry (workload × prefetcher) run.
func getCell(m *Matrix, w workloads.Spec, pf string) PlannedCell {
	return m.planned(CellKey{Workload: w.Name, Prefetcher: pf}, m.opts)
}

// optsCell plans a run under modified options.
func optsCell(m *Matrix, w workloads.Spec, pf, variant string, o RunOptions) PlannedCell {
	return m.planned(CellKey{Workload: w.Name, Prefetcher: pf, Variant: variant}, o)
}

// baselineCells plans the no-prefetcher run of every workload.
func baselineCells(m *Matrix) []PlannedCell {
	var out []PlannedCell
	for _, w := range workloads.All() {
		out = append(out, getCell(m, w, "none"))
	}
	return out
}

// matrixCells plans baseline + the listed prefetchers for every workload.
func matrixCells(m *Matrix, pfs []string) []PlannedCell {
	out := baselineCells(m)
	for _, w := range workloads.All() {
		for _, pf := range pfs {
			out = append(out, getCell(m, w, pf))
		}
	}
	return out
}

// experimentCells enumerates the cells one experiment needs. Unknown
// names plan nothing (the renderer reports them).
func experimentCells(name string, m *Matrix) []PlannedCell {
	var out []PlannedCell
	switch name {
	case "table1":
		// Static: no simulation.
	case "table2":
		out = baselineCells(m)
	case "fig2":
		for _, kind := range prefetch.AllEvents() {
			for _, w := range workloads.All() {
				label := fmt.Sprintf("multievent1[event=%s]", kind)
				out = append(out, m.planned(CellKey{Workload: w.Name, Prefetcher: label}, m.opts))
			}
		}
	case "fig3":
		pfs := make([]string, 0, 5)
		for n := 1; n <= 5; n++ {
			pfs = append(pfs, fmt.Sprintf("multievent%d", n))
		}
		out = matrixCells(m, pfs)
	case "fig4":
		for _, w := range workloads.All() {
			out = append(out, m.planned(CellKey{Workload: w.Name, Prefetcher: "multievent2[probe]"}, m.opts))
		}
	case "fig6":
		out = baselineCells(m)
		for _, w := range workloads.All() {
			for _, size := range Fig6Sizes {
				label := fmt.Sprintf("bingo[hist=%d]", size)
				out = append(out, m.planned(CellKey{Workload: w.Name, Prefetcher: label}, m.opts))
			}
		}
	case "fig7", "fig8", "fig9", "timeliness":
		// timeliness reads the same cells as the Figure 7–9 matrix; the
		// lifecycle counters ride along in every cell's Results.
		out = matrixCells(m, PaperPrefetchers())
	case "fig10":
		out = matrixCells(m, fig10Variants)
	case "ablate-vote":
		out = baselineCells(m)
		for _, th := range voteThresholds {
			out = append(out, variantCells(m, voteCellLabel(th))...)
		}
		out = append(out, variantCells(m, "bingo[recent]")...)
	case "ablate-region":
		out = baselineCells(m)
		for _, size := range regionSizes {
			out = append(out, variantCells(m, regionCellLabel(size))...)
		}
	case "ablate-sharing":
		out = matrixCells(m, []string{"bingo", "bingo-shared"})
	case "ablate-queue":
		for _, depth := range queueDepths {
			o, variant := queueOpts(m.Options(), depth)
			for _, w := range workloads.All() {
				out = append(out, optsCell(m, w, "none", variant, o))
				out = append(out, optsCell(m, w, "bingo", variant, o))
			}
		}
	case "ablate-bandwidth":
		for _, scale := range bandwidthScales {
			o, variant := bandwidthOpts(m.Options(), scale.mult)
			for _, w := range workloads.All() {
				out = append(out, optsCell(m, w, "none", variant, o))
				for _, pf := range bandwidthPrefetchers {
					out = append(out, optsCell(m, w, pf, variant, o))
				}
			}
		}
	case "ablate-level":
		for _, level := range attachLevels {
			o, variant := levelOpts(m.Options(), level)
			for _, w := range workloads.All() {
				out = append(out, optsCell(m, w, "none", variant, o))
				out = append(out, optsCell(m, w, "bingo", variant, o))
			}
		}
	case "ablate-tags":
		out = matrixCells(m, []string{"bingo"})
		for _, bits := range tagWidths {
			out = append(out, variantCells(m, tagCellLabel(bits))...)
		}
	case "scale-cores":
		specs, err := scaleWorkloads()
		if err != nil {
			break // BuildExperiment will surface the resolution error
		}
		for _, n := range scaleCoreCounts {
			o, variant := coresOpts(m.Options(), n)
			for _, w := range specs {
				out = append(out, optsCell(m, w, "none", variant, o))
				out = append(out, optsCell(m, w, "bingo", variant, o))
			}
		}
	case "extras":
		out = matrixCells(m, extrasPrefetchers)
	case "seeds":
		for _, seed := range defaultSeeds() {
			o, variant := seedOpts(m.Options(), seed)
			for _, w := range workloads.All() {
				out = append(out, optsCell(m, w, "none", variant, o))
				out = append(out, optsCell(m, w, "bingo", variant, o))
			}
		}
	}
	return out
}

// variantCells plans a labelled custom-config variant on every workload;
// the label itself encodes the configuration (see CellRunner).
func variantCells(m *Matrix, label string) []PlannedCell {
	var out []PlannedCell
	for _, w := range workloads.All() {
		out = append(out, m.planned(CellKey{Workload: w.Name, Prefetcher: label}, m.opts))
	}
	return out
}

// PlanExperiments enumerates (in canonical experiment order, deduplicated
// by key) every cell the named experiments will request.
func PlanExperiments(names []string, m *Matrix) []PlannedCell {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []PlannedCell
	for _, exp := range ExperimentOrder() {
		if want[exp] {
			out = append(out, experimentCells(exp, m)...)
		}
	}
	return dedupeCells(out)
}
