package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"bingo/internal/benchenv"
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

// TestBaselineCacheConcurrent drives the baseline cache from many
// goroutines; all callers must agree and -race must stay quiet.
func TestBaselineCacheConcurrent(t *testing.T) {
	cache := NewBaselineCache(microOptions())
	w, _ := workloads.ByName("Streaming")

	const callers = 8
	var wg sync.WaitGroup
	cycles := make([]uint64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cache.Get(w)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			cycles[i] = res.TotalCycles
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if cycles[i] != cycles[0] {
			t.Fatalf("caller %d saw %d cycles, caller 0 saw %d", i, cycles[i], cycles[0])
		}
	}
}

// TestEngineWarmDedupes plans the same cell many times; the engine must
// collapse the duplicates before occupying pool slots.
func TestEngineWarmDedupes(t *testing.T) {
	m := NewMatrix(microOptions())
	w, _ := workloads.ByName("SATSolver")
	var cells []PlannedCell
	for i := 0; i < 12; i++ {
		cells = append(cells, getCell(m, w, "none"))
	}
	if err := (Engine{Jobs: 4}).Warm(cells); err != nil {
		t.Fatal(err)
	}
	if got := m.Runs(); got != 1 {
		t.Fatalf("12 planned duplicates ran %d simulations, want 1", got)
	}
}

// TestEngineWarmCollectsErrors: a failing cell must not abort the pool;
// the other cells still warm and the failure surfaces in the joined error.
func TestEngineWarmCollectsErrors(t *testing.T) {
	m := NewMatrix(microOptions())
	w, _ := workloads.ByName("SATSolver")
	cells := []PlannedCell{
		getCell(m, w, "bogus"),
		getCell(m, w, "none"),
	}
	err := (Engine{Jobs: 2}).Warm(cells)
	if err == nil {
		t.Fatal("Warm should report the failed cell")
	}
	if got := m.Runs(); got != 1 {
		t.Fatalf("healthy cell did not warm alongside the failure: runs = %d", got)
	}
}

// TestPlanMatchesRender warms the planned cells of the determinism subset
// and then renders it: rendering must not need a single additional
// simulation, proving the planner enumerates exactly what the renderers
// request.
func TestPlanMatchesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a suite subset; skipped in -short")
	}
	m := NewMatrix(microOptions())
	cells := PlanExperiments(determinismExperiments, m)
	if err := (Engine{Jobs: 4}).Warm(cells); err != nil {
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

// warmPlan warms the determinism subset on a fresh matrix, returning the
// wall time and cell count (shared by the benchmark and BENCH_runner).
func warmPlan(opts RunOptions, jobs int) (time.Duration, int, error) {
	m := NewMatrix(opts)
	m.SetAllocTracking(jobs == 1)
	cells := PlanExperiments(determinismExperiments, m)
	start := time.Now()
	err := (Engine{Jobs: jobs}).Warm(cells)
	return time.Since(start), len(cells), err
}

// BenchmarkMatrixParallel compares warming the fast-budget matrix subset
// sequentially (-j 1) against the full worker pool (-j GOMAXPROCS). On a
// single-core machine the two are expected to tie; the speedup scales
// with cores up to the cell count.
func BenchmarkMatrixParallel(b *testing.B) {
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := warmPlan(microOptions(), jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runnerBench is the BENCH_runner.json document. The environment block
// records the machine the numbers were taken on: the parallel speedup is
// meaningless without knowing how many CPUs the worker pool had, and its
// degraded flag tells consumers structurally when this host could not
// have produced a >1x number (single CPU) — gate on it, don't parse the
// prose note.
type runnerBench struct {
	benchenv.Env
	Note        string  `json:"note,omitempty"`
	Cells       int     `json:"cells"`
	Experiments string  `json:"experiments"`
	SeqSeconds  float64 `json:"seq_seconds"`
	ParJobs     int     `json:"par_jobs"`
	ParSeconds  float64 `json:"par_seconds"`
	Speedup     float64 `json:"speedup"`
}

// TestEmitRunnerBench measures the sequential vs parallel warm of the
// benchmark subset and writes BENCH_runner.json to the path in the
// BENCH_RUNNER_JSON environment variable. It is a generator, not a test:
// without the variable it skips. Run it via `make bench-runner`.
func TestEmitRunnerBench(t *testing.T) {
	path := os.Getenv("BENCH_RUNNER_JSON")
	if path == "" {
		t.Skip("set BENCH_RUNNER_JSON=<path> to emit the runner benchmark")
	}
	opts := FastRunOptions()
	seq, cells, err := warmPlan(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := benchenv.Capture()
	jobs := env.GOMAXPROCS
	par, _, err := warmPlan(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	doc := runnerBench{
		Env:         env,
		Cells:       cells,
		Experiments: fmt.Sprintf("%v", determinismExperiments),
		SeqSeconds:  seq.Seconds(),
		ParJobs:     jobs,
		ParSeconds:  par.Seconds(),
		Speedup:     seq.Seconds() / par.Seconds(),
	}
	if doc.Degraded {
		doc.Note = "single-CPU host: the worker pool cannot beat sequential; re-record on a multi-core machine for a meaningful speedup"
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: seq=%s par=%s (jobs=%d, %.2fx)", path, seq, par, jobs, doc.Speedup)
}
