package main

import (
	"fmt"

	"bingo/internal/harness"
	"bingo/internal/system"
)

// benchWorkload is one named workload of the benchmark: a fixed list of
// simulation cells (application × prefetcher) run one at a time under
// the repository's default run options, optionally rendered through the
// experiment suite.
type benchWorkload struct {
	name string
	apps []string
	pfs  []string // per app; "none" must come first (the baseline)
	// opts derives the run options from the workload seed. Only the seed
	// and, where a workload says so, the instruction budgets differ from
	// the harness defaults: no engine or frontend knob is set.
	opts func(seed int64) harness.RunOptions
	// render names the suite experiments drawn from the cells (empty:
	// none).
	render []string
	// speedupRefs are the paper's speed-up figures the repository
	// records, as (measure, reference) pairs; nil when none applies.
	speedupRefs func(c *cellSet) (measured, reference []float64)
}

var serverApps = []string{"DataServing", "SATSolver", "Streaming", "Zeus", "em3d"}
var mixApps = []string{"Mix1", "Mix2", "Mix3", "Mix4", "Mix5"}

// Per-core instruction budgets for spec-mix. At the Table I budgets
// (1.5 M + 1.5 M per core) one pass over the five mixes takes about
// 25 s on a 2-CPU host, too long to repeat within one run; a third of
// that keeps the mixes' compute-bound character and lets a run take
// several fresh-process samples.
const (
	mixWarmupInstr  = 500_000
	mixMeasureInstr = 500_000
)

var benchWorkloads = []benchWorkload{
	{
		name: "server",
		apps: serverApps,
		pfs:  []string{"none", "bingo"},
		opts: func(seed int64) harness.RunOptions {
			o := harness.DefaultRunOptions()
			o.Seed = seed
			return o
		},
		speedupRefs: func(c *cellSet) ([]float64, []float64) {
			// EXPERIMENTS.md headline: em3d +285 %, Zeus +11 %.
			return []float64{c.speedup("em3d", "bingo"), c.speedup("Zeus", "bingo")}, []float64{3.85, 1.11}
		},
	},
	{
		name: "spec-mix",
		apps: mixApps,
		pfs:  []string{"none", "bingo"},
		opts: func(seed int64) harness.RunOptions {
			o := harness.DefaultRunOptions()
			o.Seed = seed
			o.System = o.System.Scaled(mixWarmupInstr, mixMeasureInstr)
			return o
		},
	},
	{
		name: "paper-matrix",
		apps: nil, // all ten Table II workloads; see cellsOf
		pfs:  append([]string{"none"}, harness.PaperPrefetchers()...),
		opts: func(seed int64) harness.RunOptions {
			o := harness.FastRunOptions()
			o.Seed = seed
			return o
		},
		render: []string{"table2", "fig7", "fig8"},
		speedupRefs: func(c *cellSet) ([]float64, []float64) {
			// EXPERIMENTS.md headline: Bingo's ten-app GMean +60 % over no
			// prefetching, and +11 % over SMS, the best prior prefetcher.
			var bingo, sms []float64
			for _, app := range c.apps {
				bingo = append(bingo, c.speedup(app, "bingo"))
				sms = append(sms, c.speedup(app, "sms"))
			}
			gb, gs := geomean(bingo), geomean(sms)
			return []float64{gb, gb / gs}, []float64{1.60, 1.11}
		},
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range benchWorkloads {
		out = append(out, w.name)
	}
	return out
}

// cellSet holds the results of one pass over a workload's cells.
type cellSet struct {
	apps []string
	res  map[[2]string]system.Results // by (app, prefetcher)
}

// speedup is pf's throughput over the baseline's on app; 0 (which the
// ratio error rejects) when either cell is missing.
func (c *cellSet) speedup(app, pf string) float64 {
	base := c.res[[2]string{app, "none"}].Throughput()
	if base == 0 {
		return 0
	}
	return c.res[[2]string{app, pf}].Throughput() / base
}

// mpkiErr compares each app's no-prefetch LLC MPKI with Table II.
func (c *cellSet) mpkiErr(paper map[string]float64) (float64, error) {
	var m, p []float64
	for _, app := range c.apps {
		res, ok := c.res[[2]string{app, "none"}]
		if !ok {
			return 0, fmt.Errorf("no baseline cell for %s", app)
		}
		m = append(m, res.LLCMPKI())
		p = append(p, paper[app])
	}
	return ratioErrGeomean(m, p)
}
