// Command perfbench is the repository's benchmark: it runs one named
// workload of simulation cells on the Table I machine, repeats it in
// fresh processes for a fixed time, checks the simulated outputs and
// prints every metric with its unit. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds the binary):
//
//	bash perfbench/run.sh --workload server --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of timed samples; --trace 1
// alternates timed and traced samples and reports the per-layer metrics.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hardLimit bounds a whole invocation: every sample process is killed
// once it passes, well inside the three minutes a run may take.
const hardLimit = 170 * time.Second

// minTimed is the fewest timed samples a --trace 0 run takes: two are
// needed to check that results repeat across processes.
const minTimed = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload generator seed")
	seconds := fs.Int("seconds", 30, "how long to keep taking samples")
	traceFlag := fs.Int("trace", 0, "0: timed samples and end-to-end metrics; 1: traced samples and per-layer metrics")
	child := fs.Bool("child", false, "internal: run one sample in this process and print its report")
	traced := fs.Bool("traced", false, "internal: with -child, decorate the simulator and record spans")
	cpuProfile := fs.String("cpuprofile", "", "internal: with -child, write a CPU profile here")
	spansOut := fs.String("spans", "", "internal: with -child, write the recorded spans here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *child {
		if err := runChildMain(w, *seed, *traced, *cpuProfile, *spansOut, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardLimit)
	defer cancel()
	d := &driver{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, stdout: stdout, stderr: stderr}
	var err error
	if *traceFlag == 1 {
		err = d.traced(ctx)
	} else {
		err = d.timed(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	return 0
}

// runChildMain is the body of one sample process.
func runChildMain(w benchWorkload, seed int64, traced bool, cpuProfile, spansOut string, stdout io.Writer) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	rep, err := runChild(w, seed, tr)
	if cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if spansOut != "" {
		if err := writeJSON(spansOut, rep.Spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// driver runs sample processes for one invocation and reports them.
type driver struct {
	w      benchWorkload
	seed   int64
	budget time.Duration
	stdout io.Writer
	stderr io.Writer
	start  time.Time
}

// sample is one finished sample process.
type sample struct {
	rep  *childReport
	wall time.Duration
	// profile is a traced sample's CPU profile share per layer.
	profile map[string]float64
}

// spawn runs this binary as a sample process and waits for it.
func (d *driver) spawn(ctx context.Context, extra ...string) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := append([]string{"-child", "-workload", d.w.name, "-seed", strconv.FormatInt(d.seed, 10)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = d.stderr
	// A sample must not outlive the driver, even if the driver is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return sample{}, fmt.Errorf("sample process: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return sample{}, fmt.Errorf("sample report: %w", err)
	}
	return sample{rep: &rep, wall: wall}, nil
}

// more reports whether another sample (expected to take as long as the
// slowest so far) still fits in the time budget.
func (d *driver) more(n, min int, slowest time.Duration) bool {
	return n < min || time.Since(d.start)+slowest <= d.budget
}

// timed takes timed samples until the budget is spent and prints the
// end-to-end metrics as medians over them.
func (d *driver) timed(ctx context.Context) error {
	d.start = time.Now()
	var samples []sample
	var slowest time.Duration
	for d.more(len(samples), minTimed, slowest) {
		s, err := d.spawn(ctx)
		if err != nil {
			return err
		}
		samples = append(samples, s)
		slowest = max(slowest, s.wall)
	}
	attempted, failed, correct := d.check(samples)
	first := samples[0].rep
	if first.SpeedupErr == 0 {
		fmt.Fprintf(d.stdout, "speedup_err: %s has no recorded paper speed-up to compare with; reported as 1 (no error)\n", d.w.name)
	}
	ms := endToEnd(samples)
	fmt.Fprintf(d.stdout, "%s seed %d: %d timed samples, %d cells each\n", d.w.name, d.seed, len(samples), first.Cells)
	for i, s := range samples {
		fmt.Fprintf(d.stdout, "  sample %d: wall %.3fs  set-up %.4fs (in pass %.4fs)  warm-up %.3fs  measure %.3fs  render %.3fs  peak %.1f MB\n",
			i+1, s.rep.WallS, s.rep.SetupS, s.rep.PassSetupS, s.rep.WarmupS, s.rep.MeasureS, s.rep.RenderS, s.rep.PeakRSSMB)
	}
	fmt.Fprintf(d.stdout, "digest %s seed %d: %s\n", d.w.name, d.seed, first.Digest)
	return d.report(correct, attempted, failed, ms)
}

// traced alternates timed and traced samples until the budget is spent
// and prints the per-layer metrics: host time from the traced samples'
// spans, decorators and CPU profile, and the simulated counts, which
// must equal the timed samples' exactly.
func (d *driver) traced(ctx context.Context) error {
	d.start = time.Now()
	dir := filepath.Join(buildDir(), "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var timed, traced []sample
	var slowest time.Duration
	for d.more(len(traced), 1, slowest) {
		s, err := d.spawn(ctx)
		if err != nil {
			return err
		}
		timed = append(timed, s)
		slowest = max(slowest, s.wall)
		if len(traced) > 0 && !d.more(len(traced), 1, slowest) {
			break
		}
		base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d", d.w.name, d.seed, len(traced)+1))
		t, err := d.spawn(ctx, "-traced", "-cpuprofile", base+".pprof", "-spans", base+".spans.json")
		if err != nil {
			return err
		}
		slowest = max(slowest, t.wall)
		top, err := pprofTop(ctx, base+".pprof")
		if err != nil {
			return err
		}
		if t.profile, err = bucketTop(top); err != nil {
			return err
		}
		traced = append(traced, t)
	}
	attempted, failed, correct := d.check(append(append([]sample(nil), timed...), traced...))
	ms := perLayer(timed, traced)
	overhead := ms[len(ms)-1].value
	fmt.Fprintf(d.stdout, "%s seed %d: %d timed and %d traced samples; tracing overhead %.1f%% of wall time\n",
		d.w.name, d.seed, len(timed), len(traced), overhead)
	fmt.Fprintf(d.stdout, "digest %s seed %d: %s\n", d.w.name, d.seed, timed[0].rep.Digest)
	fmt.Fprintf(d.stdout, "spans and CPU profiles written under %s\n", dir)
	return d.report(correct, attempted, failed, ms)
}

// endToEnd computes the end-to-end metrics of timed samples: host-time
// figures are medians over the samples, accuracy figures are properties
// of the simulated runs and equal in every sample.
func endToEnd(samples []sample) []metric {
	col := func(f func(s sample) float64) float64 {
		var vals []float64
		for _, s := range samples {
			vals = append(vals, f(s))
		}
		return median(vals)
	}
	first := samples[0].rep
	speedupErr := first.SpeedupErr
	if speedupErr == 0 {
		speedupErr = 1 // no reference: the ratio error's neutral value
	}
	return []metric{
		{"sim_minstr_per_s", col(func(s sample) float64 { return float64(s.rep.WindowInstr) / 1e6 / s.rep.MeasureS }), "Minstr/s"},
		{"wall_s", col(func(s sample) float64 { return s.rep.WallS }), "s"},
		{"setup_s", col(func(s sample) float64 { return s.rep.SetupS }), "s"},
		{"peak_rss_mb", col(func(s sample) float64 { return s.rep.PeakRSSMB }), "MB"},
		{"mpki_err", first.MPKIErr, "x"},
		{"speedup_err", speedupErr, "x"},
	}
}

// perLayer computes the per-layer metrics: host time from the traced
// samples (medians), simulated counts (equal in every sample), and last
// the tracing overhead: the median over pairs of a timed sample and the
// traced sample after it of how much longer the traced pass took.
func perLayer(timed, traced []sample) []metric {
	col := func(ss []sample, f func(s sample) float64) float64 {
		var vals []float64
		for _, s := range ss {
			vals = append(vals, f(s))
		}
		return median(vals)
	}
	var ms []metric
	for _, name := range sortedKeys(traced[0].rep.Layers) {
		ms = append(ms, metric{name, col(traced, func(s sample) float64 { return s.rep.Layers[name] }), layerUnit(name)})
	}
	for _, l := range profileLayers {
		ms = append(ms, metric{l + ".self_pct", col(traced, func(s sample) float64 { return s.profile[l] }), "%"})
	}
	for _, name := range sortedKeys(traced[0].rep.Counts) {
		ms = append(ms, metric{name, traced[0].rep.Counts[name], countUnit(name)})
	}
	// Sample i of each kind ran back to back, so comparing within pairs
	// keeps the host's drift out of the overhead as far as it can be.
	var over []float64
	for i, t := range traced {
		over = append(over, 100*(t.rep.WallS/timed[i].rep.WallS-1))
	}
	return append(ms, metric{"trace_overhead_pct", median(over), "%"})
}

// check counts cells attempted and failed over all samples. A cell
// fails its own output checks, or differs from the first sample's
// results: the digest of every simulated statistic and the simulated
// per-layer counts must repeat in every process, traced or not.
func (d *driver) check(all []sample) (attempted, failed int, correct bool) {
	ref := all[0].rep
	for i, s := range all {
		attempted += s.rep.Cells
		failed += len(s.rep.Failures)
		for _, f := range s.rep.Failures {
			fmt.Fprintf(d.stdout, "FAIL sample %d: %s\n", i+1, f)
		}
		if s.rep.Digest != ref.Digest {
			fmt.Fprintf(d.stdout, "FAIL sample %d: simulated statistics differ from sample 1 (digest %s vs %s)\n", i+1, s.rep.Digest, ref.Digest)
			failed += s.rep.Cells - len(s.rep.Failures)
			continue
		}
		if !maps.Equal(s.rep.Counts, ref.Counts) {
			fmt.Fprintf(d.stdout, "FAIL sample %d: simulated counts differ from sample 1\n", i+1)
			failed += s.rep.Cells - len(s.rep.Failures)
		}
	}
	return attempted, failed, failed == 0
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report prints each metric on its own line, then the result object as
// the last line of standard output.
func (d *driver) report(correct bool, attempted, failed int, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, make(map[string]val)}
	for _, m := range ms {
		if !validMetricName(m.name) {
			return fmt.Errorf("invalid metric name %q", m.name)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %q reported twice", m.name)
		}
		fmt.Fprintf(d.stdout, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	fmt.Fprintf(d.stdout, "cells attempted %d, failed %d, outputs correct: %v\n", attempted, failed, correct)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(d.stdout, string(b))
	return err
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mpki"):
		return "1/kinstr"
	case strings.HasSuffix(name, ".ipc"):
		return "instr/cycle"
	case strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_frac"),
		strings.HasSuffix(name, "accuracy"), strings.HasSuffix(name, "coverage"),
		strings.HasSuffix(name, "_prob"):
		return "ratio"
	}
	return "count"
}

// buildDir is where run.sh keeps build outputs; traced runs write their
// spans and profiles under it.
func buildDir() string {
	if dir := os.Getenv("PERFBENCH_BUILD"); dir != "" {
		return dir
	}
	return ".bench_build"
}
