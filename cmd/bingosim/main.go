// Command bingosim runs one workload under one prefetcher on the
// simulated four-core system and prints the measured results: per-core
// IPC, LLC statistics, coverage/accuracy, and DRAM behaviour.
//
// Usage:
//
//	bingosim -workload em3d -prefetcher bingo
//	bingosim -workload Mix1 -prefetcher none -measure 2000000
//	bingosim -trace run.trc -prefetcher sms   # replay a recorded trace
//	bingosim -list                            # show workloads & prefetchers
//
// Telemetry (pure observers: the printed results are identical either way):
//
//	bingosim -workload em3d -telemetry-out run.json       # epoch series + lifecycle as JSON
//	bingosim -workload em3d -telemetry-csv run.csv        # epoch series as CSV
//	bingosim -workload em3d -trace-out run.trace.json     # Chrome trace_event (chrome://tracing)
//	bingosim -workload em3d -debug-addr 127.0.0.1:6060    # pprof + expvar while running
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bingo/internal/harness"
	"bingo/internal/san"
	"bingo/internal/system"
	"bingo/internal/telemetry"
	"bingo/internal/trace"
	"bingo/internal/workloads"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "em3d", "workload name (see -list)")
		pfFlag       = flag.String("prefetcher", "bingo", "prefetcher name (see -list)")
		traceFlag    = flag.String("trace", "", "replay a recorded trace file on every core instead of a workload")
		warmupFlag   = flag.Uint64("warmup", 0, "override warm-up instructions per core (must be positive)")
		measureFlag  = flag.Uint64("measure", 0, "override measured instructions per core (must be positive)")
		seedFlag     = flag.Int64("seed", 1, "workload generator seed")
		listFlag     = flag.Bool("list", false, "list workloads and prefetchers, then exit")
		compareFlag  = flag.Bool("compare", false, "also run the no-prefetcher baseline and report speedup/coverage")
		sanFlag      = flag.Bool("san", san.Compiled, "runtime invariant checking (needs a -tags=san build)")
		telJSONFlag  = flag.String("telemetry-out", "", "write the epoch time-series and prefetch lifecycle as a JSON document to this file")
		telCSVFlag   = flag.String("telemetry-csv", "", "write the epoch time-series as CSV to this file")
		traceOutFlag = flag.String("trace-out", "", "write the epoch time-series as a Chrome trace_event file (chrome://tracing, Perfetto) to this file")
		epochFlag    = flag.Uint64("epoch", 0, "telemetry sampling period in cycles (0 = default; needs a telemetry output or -debug-addr)")
		debugFlag    = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and live metrics on this address while running")
		coresFlag    = flag.Int("cores", 0, "override the core count: a power of two, 0 = Table I's 4; LLC capacity, DRAM channels, and memory scale with it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bingosim: unexpected argument %q (name the workload with -workload)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *sanFlag && !san.Compiled {
		fmt.Fprintln(os.Stderr, "bingosim: -san requires a binary built with -tags=san")
		os.Exit(2)
	}
	san.SetEnabled(*sanFlag)

	if *listFlag {
		fmt.Println("workloads:")
		for _, w := range workloads.All() {
			fmt.Printf("  %-12s %s\n", w.Name, w.Description)
		}
		fmt.Printf("prefetchers: %v\n", harness.PrefetcherNames())
		return
	}
	if _, err := harness.FactoryByName(*pfFlag); err != nil {
		fmt.Fprintf(os.Stderr, "bingosim: -prefetcher: %v\n", err)
		os.Exit(2)
	}
	// 0 is the "no override" default, so an explicit -warmup 0 or
	// -measure 0 would silently run the Table I budget instead.
	workloadSet := false
	flag.Visit(func(f *flag.Flag) {
		if (f.Name == "warmup" || f.Name == "measure") && f.Value.String() == "0" {
			fmt.Fprintf(os.Stderr, "bingosim: -%s 0: instruction budget must be positive (omit the flag for the Table I default)\n", f.Name)
			os.Exit(2)
		}
		workloadSet = workloadSet || f.Name == "workload"
	})
	if *epochFlag > 0 && *telJSONFlag == "" && *telCSVFlag == "" && *traceOutFlag == "" && *debugFlag == "" {
		fmt.Fprintln(os.Stderr, "bingosim: -epoch requires -telemetry-out, -telemetry-csv, -trace-out or -debug-addr")
		os.Exit(2)
	}
	if *traceFlag != "" && workloadSet {
		// -trace replays one file on every core; a workload named beside
		// it would be silently ignored.
		fmt.Fprintln(os.Stderr, "bingosim: -workload cannot be combined with -trace (the trace replaces the workload)")
		os.Exit(2)
	}

	opts := harness.DefaultRunOptions()
	opts.Seed = *seedFlag
	if *coresFlag < 0 {
		fmt.Fprintf(os.Stderr, "bingosim: -cores %d: core count must be positive (0 = Table I default)\n", *coresFlag)
		os.Exit(2)
	}
	if *coresFlag&(*coresFlag-1) != 0 {
		fmt.Fprintf(os.Stderr, "bingosim: -cores %d: core count must be a power of two (1, 2, 4, 8, ...; 0 = Table I default)\n", *coresFlag)
		os.Exit(2)
	}
	if *coresFlag > system.MaxCores {
		fmt.Fprintf(os.Stderr, "bingosim: -cores %d: core count must be at most %d\n", *coresFlag, system.MaxCores)
		os.Exit(2)
	}
	if *coresFlag > 0 {
		opts.System = opts.System.WithCores(*coresFlag)
	}
	if *warmupFlag > 0 {
		opts.System.WarmupInstr = *warmupFlag
	}
	if *measureFlag > 0 {
		opts.System.MeasureInstr = *measureFlag
	}

	var build func(prefetcher string) (*system.System, func() error, error)
	var label string
	if *traceFlag != "" {
		label = *traceFlag
		build = func(prefetcher string) (*system.System, func() error, error) {
			return buildTraceSystem(*traceFlag, prefetcher, opts)
		}
	} else {
		w, ok := workloads.ByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bingosim: unknown workload %q (try -list)\n", *workloadFlag)
			os.Exit(2)
		}
		label = w.Name
		build = func(prefetcher string) (*system.System, func() error, error) {
			factory, err := harness.FactoryByName(prefetcher)
			if err != nil {
				return nil, nil, err
			}
			sys, err := harness.BuildSystem(w, factory, opts)
			return sys, nil, err
		}
	}

	// Telemetry is a pure observer: the collector attaches before the
	// simulation and the printed results are byte-identical with or
	// without it.
	var tel *telemetry.Collector
	if *telJSONFlag != "" || *telCSVFlag != "" || *traceOutFlag != "" || *debugFlag != "" {
		tel = telemetry.NewCollector(*epochFlag)
		tel.Workload = label
		tel.Prefetcher = *pfFlag
	}
	if *debugFlag != "" {
		srv, err := telemetry.StartDebugServer(*debugFlag, tel.Registry())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bingosim: %v\n", err)
			os.Exit(1)
		}
		// The process is exiting anyway when this runs; a close error on the
		// debug listener has no one left to act on it.
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "bingosim: debug server on http://%s/debug/\n", srv.Addr)
	}

	run := func(prefetcher string, tel *telemetry.Collector) (system.Results, error) {
		sys, cleanup, err := build(prefetcher)
		if err != nil {
			return system.Results{}, err
		}
		if cleanup != nil {
			defer func() {
				if cerr := cleanup(); cerr != nil {
					fmt.Fprintf(os.Stderr, "bingosim: closing trace: %v\n", cerr)
				}
			}()
		}
		if tel != nil {
			sys.EnableTelemetry(tel)
		}
		return sys.Run(), nil
	}

	// With -compare the baseline runs first so its miss count can feed
	// the main run's report (coverage and overprediction vs baseline).
	// The baseline runs unobserved: the telemetry outputs describe the
	// main run.
	var baseMisses uint64
	var base system.Results
	compare := *compareFlag && *pfFlag != "none"
	if compare {
		var err error
		base, err = run("none", nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bingosim: baseline: %v\n", err)
			os.Exit(1)
		}
		baseMisses = base.LLC.Misses
	}

	res, err := run(*pfFlag, tel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bingosim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s\n%s", label, res.StringWithBaseline(baseMisses))

	if compare {
		fmt.Printf("baseline: throughput=%.3f mpki=%.2f\n", base.Throughput(), base.LLCMPKI())
		fmt.Printf("speedup=%+.1f%% coverage=%.1f%% overprediction=%.1f%%\n",
			(res.Throughput()/base.Throughput()-1)*100,
			res.CoverageVsBaseline(baseMisses)*100,
			res.Overprediction(baseMisses)*100)
	}

	if err := writeTelemetry(tel, *telJSONFlag, *telCSVFlag, *traceOutFlag); err != nil {
		fmt.Fprintf(os.Stderr, "bingosim: %v\n", err)
		os.Exit(1)
	}
}

// writeTelemetry exports the collected series to whichever output files
// were requested.
func writeTelemetry(tel *telemetry.Collector, jsonPath, csvPath, tracePath string) error {
	if tel == nil {
		return nil
	}
	write := func(path string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		writeErr := fn(f)
		closeErr := f.Close()
		if writeErr != nil {
			return fmt.Errorf("writing %s: %w", path, writeErr)
		}
		if closeErr != nil {
			return fmt.Errorf("writing %s: %w", path, closeErr)
		}
		return nil
	}
	if err := write(jsonPath, tel.WriteJSON); err != nil {
		return err
	}
	if err := write(csvPath, tel.WriteCSV); err != nil {
		return err
	}
	return write(tracePath, tel.WriteChromeTrace)
}

// buildTraceSystem constructs a system replaying the same recorded trace
// on every core. The returned cleanup closes the trace readers; its
// error is reported (the files are read-only, so a close failure cannot
// lose data, but it should not pass silently).
func buildTraceSystem(path, prefetcher string, opts harness.RunOptions) (*system.System, func() error, error) {
	factory, err := harness.FactoryByName(prefetcher)
	if err != nil {
		return nil, nil, err
	}
	sources := make([]trace.Source, opts.System.NumCores)
	var closers []func() error
	cleanup := func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := range sources {
		f, err := os.Open(path)
		if err != nil {
			_ = cleanup() // best-effort: the open error wins
			return nil, nil, err
		}
		closers = append(closers, f.Close)
		r, closer, err := trace.NewAutoReader(f)
		if err != nil {
			_ = cleanup() // best-effort: the reader error wins
			return nil, nil, err
		}
		if closer != nil {
			closers = append(closers, closer.Close)
		}
		sources[i] = r
	}
	sys, err := system.New(opts.System, sources, factory)
	if err != nil {
		_ = cleanup() // best-effort: the construction error wins
		return nil, nil, err
	}
	return sys, cleanup, nil
}
