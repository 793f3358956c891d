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
// Checkpointing:
//
//	bingosim -workload em3d -checkpoint-out warm.ckpt     # save at end of warm-up
//	bingosim -workload em3d -checkpoint-out run.ckpt -checkpoint-every 100000
//	bingosim -workload em3d -resume run.ckpt              # continue from a checkpoint
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
	"path/filepath"

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
		warmupFlag   = flag.Uint64("warmup", 0, "override warm-up instructions per core")
		measureFlag  = flag.Uint64("measure", 0, "override measured instructions per core")
		seedFlag     = flag.Int64("seed", 1, "workload generator seed")
		listFlag     = flag.Bool("list", false, "list workloads and prefetchers, then exit")
		compareFlag  = flag.Bool("compare", false, "also run the no-prefetcher baseline and report speedup/coverage")
		sanFlag      = flag.Bool("san", san.Compiled, "runtime invariant checking (needs a -tags=san build)")
		ckptOutFlag  = flag.String("checkpoint-out", "", "save a checkpoint to this file: at end of warm-up, or periodically with -checkpoint-every")
		ckptEvery    = flag.Uint64("checkpoint-every", 0, "with -checkpoint-out: overwrite the checkpoint every N cycles while running to completion")
		resumeFlag   = flag.String("resume", "", "restore simulation state from a checkpoint file before running (same workload, prefetcher, and configuration required)")
		telJSONFlag  = flag.String("telemetry-out", "", "write the epoch time-series and prefetch lifecycle as a JSON document to this file")
		telCSVFlag   = flag.String("telemetry-csv", "", "write the epoch time-series as CSV to this file")
		traceOutFlag = flag.String("trace-out", "", "write the epoch time-series as a Chrome trace_event file (chrome://tracing, Perfetto) to this file")
		epochFlag    = flag.Uint64("epoch", 0, "telemetry sampling period in cycles (0 = default)")
		debugFlag    = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and live metrics on this address while running")
		engineFlag   = flag.String("engine", "lockstep", "simulation engine: lockstep (reference) or event (cycle-skipping; identical results, faster on memory-bound workloads)")
		coresFlag    = flag.Int("cores", 0, "override the core count (0 = Table I's 4); LLC capacity, DRAM channels, and memory scale with it")
	)
	flag.Parse()

	engine, err := system.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bingosim: %v\n", err)
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
	if *ckptEvery > 0 && *ckptOutFlag == "" {
		fmt.Fprintln(os.Stderr, "bingosim: -checkpoint-every requires -checkpoint-out")
		os.Exit(2)
	}
	if *resumeFlag != "" && *ckptOutFlag != "" && *ckptEvery == 0 {
		// An end-of-warm-up save needs the system still in its warm-up
		// phase, which a resumed run may already have left.
		fmt.Fprintln(os.Stderr, "bingosim: -resume with -checkpoint-out needs -checkpoint-every (the resumed state may be past warm-up)")
		os.Exit(2)
	}

	opts := harness.DefaultRunOptions()
	opts.Seed = *seedFlag
	opts.Engine = engine
	if *coresFlag < 0 {
		fmt.Fprintf(os.Stderr, "bingosim: -cores %d: core count must be positive (0 = Table I default)\n", *coresFlag)
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
	// simulation (and before any -resume restore, so checkpointed
	// collector state reloads or resyncs correctly) and the printed
	// results are byte-identical with or without it.
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

	run := func(prefetcher string, checkpointed bool, tel *telemetry.Collector) (system.Results, error) {
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
		if !checkpointed {
			return sys.Run(), nil
		}
		return execute(sys, *resumeFlag, *ckptOutFlag, *ckptEvery)
	}

	// With -compare the baseline runs first so its miss count can feed
	// the main run's report (coverage and overprediction vs baseline).
	// The baseline always runs cold and unobserved: a checkpoint records
	// one exact machine, and the no-prefetcher baseline is a different
	// one.
	var baseMisses uint64
	var base system.Results
	compare := *compareFlag && *pfFlag != "none"
	if compare {
		var err error
		base, err = run("none", false, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bingosim: baseline: %v\n", err)
			os.Exit(1)
		}
		baseMisses = base.LLC.Misses
	}

	res, err := run(*pfFlag, true, tel)
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

// execute runs sys to completion, applying the checkpoint flags: restore
// from resume first, then either save once at the end of warm-up
// (ckptOut alone) or overwrite ckptOut every `every` cycles while the
// run completes. The printed results are identical with or without
// checkpointing — saving is a pure observer at the cycle boundary.
func execute(sys *system.System, resume, ckptOut string, every uint64) (system.Results, error) {
	if resume != "" {
		f, err := os.Open(resume)
		if err != nil {
			return system.Results{}, err
		}
		loadErr := sys.LoadCheckpoint(f)
		closeErr := f.Close()
		if loadErr != nil {
			return system.Results{}, fmt.Errorf("resuming from %s: %w", resume, loadErr)
		}
		if closeErr != nil {
			return system.Results{}, closeErr
		}
	}

	switch {
	case ckptOut != "" && every == 0:
		sys.RunWarmup()
		if err := saveCheckpointFile(sys, ckptOut); err != nil {
			return system.Results{}, err
		}
		return sys.Run(), nil
	case ckptOut != "":
		var hookErr error
		next := sys.Clock() + every
		sys.SetAdvanceHook(func(cycle uint64) bool {
			if cycle < next {
				return false
			}
			for next <= cycle {
				next += every
			}
			if err := saveCheckpointFile(sys, ckptOut); err != nil {
				hookErr = err
				return true // pause: abort the run on a failed save
			}
			return false
		})
		res, paused := sys.RunResumable()
		if paused {
			return system.Results{}, hookErr
		}
		return res, nil
	default:
		return sys.Run(), nil
	}
}

// saveCheckpointFile writes sys's checkpoint atomically: a temp file in
// the target directory, renamed over path only once fully written, so an
// interrupted save never leaves a truncated checkpoint behind.
func saveCheckpointFile(sys *system.System, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	saveErr := sys.SaveCheckpoint(tmp)
	closeErr := tmp.Close()
	if saveErr == nil {
		saveErr = closeErr
	}
	if saveErr == nil {
		saveErr = os.Rename(tmp.Name(), path)
	}
	if saveErr != nil {
		_ = os.Remove(tmp.Name()) // best-effort temp cleanup: the save error wins
		return fmt.Errorf("saving checkpoint %s: %w", path, saveErr)
	}
	return nil
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
	sys.SetEngine(opts.Engine)
	return sys, cleanup, nil
}
