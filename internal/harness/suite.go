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

// experimentOrder is the canonical rendering order of the suite: the
// paper's artefact order, then the extra ablations. Output determinism
// relies on rendering strictly in this order regardless of how many
// workers warmed the matrix.
var experimentOrder = []string{
	"table1", "table2", "fig2", "fig3", "fig4", "fig6",
	"fig7", "fig8", "fig9", "fig10", "timeliness", "ablate-vote", "ablate-region",
	"ablate-sharing", "ablate-queue", "ablate-bandwidth", "ablate-level",
	"ablate-tags", "scale-cores", "extras", "seeds",
}

// ExperimentOrder returns the canonical experiment names in render order.
func ExperimentOrder() []string {
	return append([]string(nil), experimentOrder...)
}

// UnknownExperimentError reports a requested experiment name that the
// suite does not know.
type UnknownExperimentError struct {
	Name string
}

// Error implements error.
func (e UnknownExperimentError) Error() string {
	return fmt.Sprintf("unknown experiment %q (have %v)", e.Name, experimentOrder)
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
	switch name {
	case "table1":
		return Table1(m.Options()), nil
	case "table2":
		return Table2(m)
	case "fig2":
		return Fig2(m)
	case "fig3":
		return Fig3(m)
	case "fig4":
		return Fig4(m)
	case "fig6":
		return Fig6(m, nil)
	case "fig7":
		return Fig7(m)
	case "fig8":
		return Fig8(m)
	case "fig9":
		return Fig9(m, DefaultAreaModel())
	case "fig10":
		return Fig10(m)
	case "timeliness":
		return Timeliness(m)
	case "ablate-vote":
		return AblateVote(m)
	case "ablate-region":
		return AblateRegion(m)
	case "ablate-sharing":
		return AblateSharing(m)
	case "ablate-queue":
		return AblateQueue(m)
	case "ablate-bandwidth":
		return AblateBandwidth(m)
	case "ablate-level":
		return AblateLevel(m)
	case "ablate-tags":
		return AblateTags(m)
	case "scale-cores":
		return ScaleCores(m)
	case "extras":
		return Extras(m)
	case "seeds":
		return SeedSweep(m, "bingo", nil)
	default:
		return Table{}, UnknownExperimentError{Name: name}
	}
}

// SuiteConfig configures one experiment-suite run.
type SuiteConfig struct {
	// Experiments selects artefacts by name; nil/empty (or containing
	// "all") selects everything.
	Experiments []string
	// Opts are the base run options of the matrix.
	Opts RunOptions
	// Jobs bounds the worker pool warming the matrix: 1 recovers the
	// fully sequential lazy path; <= 0 selects runtime.GOMAXPROCS(0).
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
	// Debug, when non-nil, receives live progress counters (cells
	// completed/failed, instructions simulated) — typically the registry
	// served by a telemetry.DebugServer behind -debug-addr.
	Debug *telemetry.Registry
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
	known := make(map[string]bool, len(experimentOrder))
	var out []string
	for _, e := range experimentOrder {
		known[e] = true
		if all || want[e] {
			out = append(out, e)
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
// With Jobs > 1 the matrix cells of every selected experiment are first
// warmed concurrently on a bounded worker pool (deduplicated in flight by
// the Matrix's singleflight), then the renderers walk the memoised matrix
// strictly in order. Because each cell is simulated exactly once — by
// whichever path reaches it first — and renderers consume cells by key,
// the rendered bytes are identical for every Jobs value, including
// repeated runs at the same value. Jobs == 1 skips the warm phase
// entirely, recovering the historical lazy sequential path.
func RunSuite(out io.Writer, cfg SuiteConfig) error {
	m, names, err := NewSuiteMatrix(cfg)
	if err != nil {
		return err
	}
	jobs := cfg.jobs()

	wallStart := time.Now()
	var warmWall time.Duration
	if jobs > 1 {
		cells := PlanExperiments(names, m)
		reportf(cfg.Report, "warming %d matrix cells on %d workers\n", len(cells), jobs)
		if err := (Engine{Jobs: jobs}).Warm(cells); err != nil {
			return err
		}
		warmWall = time.Since(wallStart)
	}

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
// matrix it describes: base options, telemetry export, debug registry,
// and allocation tracking (only attributable at Jobs == 1). It also
// returns the selected experiment names in render order. An unknown
// format or experiment fails here, before any simulation.
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
	m.SetDebugRegistry(cfg.Debug)
	return m, names, nil
}

// RenderTables builds and renders the named experiments' tables to out,
// strictly in the given order, in the configured format. Renderers pull
// cells from the memoised matrix — any cell not already present (warmed
// by the engine or injected by the caller) is simulated lazily here, so
// the output never depends on how the matrix was populated.
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
	if warmWall > 0 {
		fmt.Fprintf(w, "parallel warm phase: %s\n", warmWall.Round(time.Millisecond))
	}
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
