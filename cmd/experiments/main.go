// Command experiments regenerates every table and figure of the Bingo
// paper's evaluation (HPCA 2019) on the simulated system, plus the extra
// ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments -exp all              # everything (slow: the full matrix)
//	experiments -exp fig8             # one artefact
//	experiments -exp fig7,fig8,fig9   # several (they share runs)
//	experiments -fast                 # reduced instruction budgets
//	experiments -exp all -fast -j 8   # warm the run matrix on 8 workers
//	experiments -warm-reuse .warm     # reuse end-of-warm-up checkpoints
//	experiments -telemetry out/       # export per-cell epoch series
//	experiments -debug-addr :6060     # pprof/expvar while running
//
// Distributed sweeps (see DESIGN.md §11): one coordinator serves the job
// queue, any number of workers — on this or other machines — lease and
// run cells; the rendered tables are byte-identical to a local run.
//
//	experiments -serve :8080 -exp all          # coordinator: plan + serve + render
//	experiments -worker http://host:8080 -j 4  # worker: lease and simulate jobs
//
// Artefact names: table1 table2 fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10
// timeliness ablate-vote ablate-region ablate-sharing ablate-queue
// ablate-bandwidth ablate-level ablate-tags extras seeds.
//
// The rendered tables on stdout are byte-identical for every -j value
// (and across repeated runs); timings and the per-cell run report go to
// stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"bingo/internal/harness"
	"bingo/internal/san"
	"bingo/internal/sweep"
	"bingo/internal/system"
	"bingo/internal/telemetry"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		fastFlag   = flag.Bool("fast", false, "use reduced instruction budgets")
		seedFlag   = flag.Int64("seed", 1, "workload generator seed")
		formatFlag = flag.String("format", "text", "output format: text, csv, or markdown")
		jobsFlag   = flag.Int("j", 0, "simulation workers; 1 = sequential, 0 = GOMAXPROCS")
		quietFlag  = flag.Bool("quiet", false, "suppress the stderr run report")
		sanFlag    = flag.Bool("san", san.Compiled, "runtime invariant checking (needs a -tags=san build)")
		warmFlag   = flag.String("warm-reuse", "", "cache end-of-warm-up checkpoints in this directory and restore them on later runs (tables stay byte-identical)")
		telFlag    = flag.String("telemetry", "", "export each cell's epoch time-series (JSON + Chrome trace) into this directory")
		epochFlag  = flag.Uint64("epoch", 0, "telemetry sampling period in cycles (0 = default)")
		debugFlag  = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and live progress counters on this address while running")
		engineFlag = flag.String("engine", "lockstep", "simulation engine: lockstep (reference) or event (cycle-skipping; identical tables, faster on memory-bound workloads)")
		serveFlag  = flag.String("serve", "", "coordinator mode: serve the sweep's job queue on this address, render tables once all jobs finish")
		workerFlag = flag.String("worker", "", "worker mode: lease and run jobs from the coordinator at this base URL")
		ttlFlag    = flag.Duration("lease-ttl", time.Minute, "coordinator: job lease duration without a heartbeat before re-leasing")
		triesFlag  = flag.Int("max-attempts", 3, "coordinator: lease attempts per job before falling back to local simulation")
	)
	flag.Parse()

	if *serveFlag != "" && *workerFlag != "" {
		fmt.Fprintln(os.Stderr, "experiments: -serve and -worker are mutually exclusive")
		os.Exit(2)
	}

	engine, err := system.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *sanFlag && !san.Compiled {
		fmt.Fprintln(os.Stderr, "experiments: -san requires a binary built with -tags=san")
		os.Exit(2)
	}
	san.SetEnabled(*sanFlag)

	opts := harness.DefaultRunOptions()
	if *fastFlag {
		opts = harness.FastRunOptions()
	}
	opts.Seed = *seedFlag
	opts.Engine = engine

	var report io.Writer = os.Stderr
	if *quietFlag {
		report = nil
	}
	var debugReg *telemetry.Registry
	if *debugFlag != "" {
		debugReg = telemetry.NewRegistry()
		srv, err := telemetry.StartDebugServer(*debugFlag, debugReg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		// The process is exiting anyway when this runs; a close error on the
		// debug listener has no one left to act on it.
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s/debug/\n", srv.Addr)
	}
	if *workerFlag != "" {
		w := &sweep.Worker{
			BaseURL: *workerFlag,
			Jobs:    *jobsFlag,
			WarmDir: *warmFlag,
			Report:  report,
		}
		if err := w.Run(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.SuiteConfig{
		Experiments:    strings.Split(*expFlag, ","),
		Opts:           opts,
		Jobs:           *jobsFlag,
		Format:         *formatFlag,
		BudgetLabel:    budgetName(*fastFlag),
		Report:         report,
		WarmDir:        *warmFlag,
		TelemetryDir:   *telFlag,
		TelemetryEpoch: *epochFlag,
		Debug:          debugReg,
	}

	if *serveFlag != "" {
		if err := serveSweep(*serveFlag, cfg, sweep.Options{LeaseTTL: *ttlFlag, MaxAttempts: *triesFlag}, report); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			var unknown harness.UnknownExperimentError
			if errors.As(err, &unknown) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	if err := harness.RunSuite(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		var unknown harness.UnknownExperimentError
		if errors.As(err, &unknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// serveSweep runs coordinator mode: serve the job queue on addr, wait
// until every job is terminal, render the tables to stdout, then shut
// the listener down.
func serveSweep(addr string, cfg harness.SuiteConfig, o sweep.Options, report io.Writer) error {
	coord, err := sweep.NewCoordinator(cfg, o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if report != nil {
		fmt.Fprintf(report, "experiments: sweep coordinator on http://%s/ (progress at /v1/progress)\n", ln.Addr())
	}
	runErr := coord.Run(context.Background(), os.Stdout)
	// Lame-duck period: keep answering lease polls (now "410 drained")
	// for a moment so workers between polls exit cleanly instead of
	// hitting a closed port.
	time.Sleep(time.Second)
	closeErr := srv.Close()
	<-serveErr // always http.ErrServerClosed after Close; the real errors are below
	if runErr != nil {
		return runErr
	}
	return closeErr
}

func budgetName(fast bool) string {
	if fast {
		return "fast"
	}
	return "full"
}
