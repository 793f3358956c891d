// All wall-clock reads in this file time the experiment driver itself
// (warm-up wall time, per-table render time) for the human-facing run
// report; simulated results never depend on them.
//
//lint:file-ignore detlint wall clock used for run-report timing only, never in simulated paths
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"bingo/internal/telemetry"
)

// experiments is the suite in canonical render order: the paper's
// artefact order, then the extra ablations. It is the one list of
// experiment names; ExperimentOrder, SuiteConfig.Selected and
// BuildExperiment all read it. Output determinism relies on rendering
// strictly in this order regardless of how many workers warmed the
// matrix.
var experiments = []struct {
	name  string
	build func(*Matrix) (Table, error)
}{
	{"table1", func(m *Matrix) (Table, error) { return Table1(m.Options()), nil }},
	{"table2", Table2},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig6", func(m *Matrix) (Table, error) { return Fig6(m, nil) }},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", func(m *Matrix) (Table, error) { return Fig9(m, DefaultAreaModel()) }},
	{"fig10", Fig10},
	{"timeliness", Timeliness},
	{"ablate-vote", AblateVote},
	{"ablate-region", AblateRegion},
	{"ablate-sharing", AblateSharing},
	{"ablate-queue", AblateQueue},
	{"ablate-bandwidth", AblateBandwidth},
	{"ablate-level", AblateLevel},
	{"ablate-tags", AblateTags},
	{"scale-cores", ScaleCores},
	{"extras", Extras},
	{"seeds", func(m *Matrix) (Table, error) { return SeedSweep(m, "bingo", nil) }},
}

// ExperimentOrder returns the canonical experiment names in render order.
func ExperimentOrder() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// UnknownExperimentError reports a requested experiment name that the
// suite does not know.
type UnknownExperimentError struct {
	Name string
}

// Error implements error.
func (e UnknownExperimentError) Error() string {
	return fmt.Sprintf("unknown experiment %q (have %v)", e.Name, ExperimentOrder())
}

// UnknownFormatError reports a SuiteConfig.Format the renderers do not
// support.
type UnknownFormatError struct {
	Format string
}

// Error implements error.
func (e UnknownFormatError) Error() string {
	return fmt.Sprintf("unknown output format %q (have text, csv, markdown)", e.Format)
}

// checkFormat accepts the formats RenderTables knows; "" means text.
func checkFormat(format string) error {
	switch format {
	case "", "text", "csv", "markdown":
		return nil
	}
	return UnknownFormatError{Format: format}
}

// BuildExperiment builds (running any simulations still missing from m)
// the named experiment's table.
func BuildExperiment(name string, m *Matrix) (Table, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.build(m)
		}
	}
	return Table{}, UnknownExperimentError{Name: name}
}

// SuiteConfig configures one experiment-suite run.
type SuiteConfig struct {
	// Experiments selects artefacts by name; nil/empty (or containing
	// "all") selects everything.
	Experiments []string
	// Opts are the base run options of the matrix.
	Opts RunOptions
	// Jobs bounds the worker pool warming the matrix: 1 simulates one
	// cell at a time in render order; <= 0 selects runtime.GOMAXPROCS(0).
	// The pool never starts more workers than there are cells.
	Jobs int
	// Format is "text" (or "", the default), "csv", or "markdown";
	// NewSuiteMatrix rejects anything else with UnknownFormatError.
	Format string
	// BudgetLabel names the instruction budgets in table notes
	// ("full", "fast"); empty omits the note's budget clause.
	BudgetLabel string
	// Report receives the run report (per-cell timings, totals) and
	// progress lines; nil discards them. The report is observability
	// output and deliberately kept off the table writer so rendered
	// tables stay byte-identical across job counts and repeated runs.
	Report io.Writer
	// TelemetryDir, when non-empty, exports every cell's epoch
	// time-series (JSON document + Chrome trace_event file) into this
	// directory. Collectors are pure observers: the rendered tables are
	// byte-identical with or without it.
	TelemetryDir string
	// TelemetryEpoch is the sampling period in simulated cycles for the
	// exported series (0 selects telemetry.DefaultEpochCycles).
	TelemetryEpoch uint64
	// DebugAddr, when non-empty, is where RunSuite serves a
	// telemetry.DebugServer (pprof, expvar, and the matrix's Progress
	// counters) while the suite runs.
	DebugAddr string
}

// jobs resolves the configured worker count.
func (c SuiteConfig) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Selected resolves the requested experiment names (canonical order),
// erroring on unknown names.
func (c SuiteConfig) Selected() ([]string, error) {
	want := make(map[string]bool)
	all := len(c.Experiments) == 0
	for _, e := range c.Experiments {
		e = strings.TrimSpace(e)
		if e == "all" {
			all = true
			continue
		}
		if e == "" {
			continue
		}
		want[e] = true
	}
	known := make(map[string]bool, len(experiments))
	var out []string
	for _, e := range experiments {
		known[e.name] = true
		if all || want[e.name] {
			out = append(out, e.name)
		}
	}
	for e := range want {
		if !known[e] {
			return nil, UnknownExperimentError{Name: e}
		}
	}
	return out, nil
}

// RunSuite runs the selected experiments and renders their tables to out
// in canonical order.
//
// It plans, warms, then renders. Planning records the cells every
// selected renderer will request (PlanExperiments); warming simulates
// them on min(Jobs, cells) workers, deduplicated in flight by the
// Matrix's singleflight; rendering then walks the memoised matrix
// strictly in order. Because each cell is simulated exactly once and
// renderers consume cells by key, the rendered bytes are identical for
// every Jobs value, including repeated runs at the same value. With one
// worker the cells run in the order the renderers first request them.
func RunSuite(out io.Writer, cfg SuiteConfig) error {
	m, names, err := NewSuiteMatrix(cfg)
	if err != nil {
		return err
	}
	if cfg.DebugAddr != "" {
		srv, err := telemetry.StartDebugServer(cfg.DebugAddr, m.Progress)
		if err != nil {
			return err
		}
		// The suite is over when this runs; a close error on the debug
		// listener has no one left to act on it.
		defer func() { _ = srv.Close() }()
		reportf(cfg.Report, "debug server on http://%s/debug/\n", srv.Addr)
	}
	jobs := cfg.jobs()

	wallStart := time.Now()
	cells := PlanExperiments(names, m)
	reportf(cfg.Report, "warming %d matrix cells on %d workers\n", len(cells), min(jobs, len(cells)))
	if err := warm(m, cells, jobs); err != nil {
		return err
	}
	warmWall := time.Since(wallStart)

	if err := RenderTables(out, cfg, m, names); err != nil {
		return err
	}

	writeRunReport(cfg.Report, m, jobs, warmWall, time.Since(wallStart))
	if cfg.TelemetryDir != "" {
		reportf(cfg.Report, "telemetry: per-cell epoch series exported to %s\n", cfg.TelemetryDir)
	}
	return nil
}

// NewSuiteMatrix validates a suite configuration and builds the run
// matrix it describes: base options, telemetry export, and allocation
// tracking (only attributable at Jobs == 1). It also returns the
// selected experiment names in render order. An unknown format or
// experiment fails here, before any simulation.
func NewSuiteMatrix(cfg SuiteConfig) (*Matrix, []string, error) {
	if err := checkFormat(cfg.Format); err != nil {
		return nil, nil, err
	}
	names, err := cfg.Selected()
	if err != nil {
		return nil, nil, err
	}
	m := NewMatrix(cfg.Opts)
	// Per-cell allocation accounting is only attributable when cells run
	// one at a time.
	m.SetAllocTracking(cfg.jobs() == 1)
	if cfg.TelemetryDir != "" {
		if err := m.SetTelemetry(cfg.TelemetryDir, cfg.TelemetryEpoch); err != nil {
			return nil, nil, err
		}
	}
	return m, names, nil
}

// RenderTables builds and renders the named experiments' tables to out,
// strictly in the given order, in the configured format. Renderers pull
// cells from the memoised matrix — any cell not already present (warmed
// by RunSuite or injected by the caller) is simulated here, so the
// output never depends on how the matrix was populated.
func RenderTables(out io.Writer, cfg SuiteConfig, m *Matrix, names []string) error {
	for _, name := range names {
		t0 := time.Now()
		table, err := BuildExperiment(name, m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if cfg.BudgetLabel != "" {
			table.AddNote("seed %d, %s budgets", cfg.Opts.Seed, cfg.BudgetLabel)
		}
		switch cfg.Format {
		case "csv":
			table.RenderCSV(out)
		case "markdown":
			table.RenderMarkdown(out)
		default:
			table.Render(out)
		}
		reportf(cfg.Report, "%s: rendered in %s\n", name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// reportf writes a progress line to the report sink, if any.
func reportf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// writeRunReport renders the per-cell statistics: totals, effective
// parallelism, and the slowest cells with their timing (and allocation
// volume when it was attributable, i.e. jobs == 1).
func writeRunReport(w io.Writer, m *Matrix, jobs int, warmWall, totalWall time.Duration) {
	if w == nil {
		return
	}
	stats := m.Stats()
	if len(stats) == 0 {
		return
	}
	var simTotal time.Duration
	var instrTotal uint64
	for _, s := range stats {
		simTotal += s.Duration
		instrTotal += s.Instructions
	}
	fmt.Fprintf(w, "run report: %d cells, %s simulated, %s wall (jobs=%d",
		len(stats), simTotal.Round(time.Millisecond), totalWall.Round(time.Millisecond), jobs)
	if totalWall > 0 {
		fmt.Fprintf(w, ", %.2fx effective", float64(simTotal)/float64(totalWall))
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "warm phase: %s\n", warmWall.Round(time.Millisecond))
	fmt.Fprintf(w, "instructions simulated: %d\n", instrTotal)
	top := stats
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Fprintln(w, "slowest cells:")
	for _, s := range top {
		line := fmt.Sprintf("  %-48s %10s %12d instr", s.Key, s.Duration.Round(time.Millisecond), s.Instructions)
		if s.AllocBytes >= 0 {
			line += fmt.Sprintf(" %10.1f MB alloc", float64(s.AllocBytes)/(1<<20))
		}
		fmt.Fprintln(w, line)
	}
}
