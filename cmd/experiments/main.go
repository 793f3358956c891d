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
//	experiments -telemetry out/       # export per-cell epoch series
//	experiments -debug-addr :6060     # pprof/expvar while running
//
// Artefact names (-h prints them too): table1 table2 fig2 fig3 fig4 fig6
// fig7 fig8 fig9 fig10 timeliness ablate-vote ablate-region
// ablate-sharing ablate-queue ablate-bandwidth ablate-level ablate-tags
// scale-cores extras seeds.
//
// -j takes at most 64 workers: each one holds a live simulated system
// (tens of MB) while its cell runs.
//
// The rendered tables on stdout are byte-identical for every -j value
// (and across repeated runs); timings and the per-cell run report go to
// stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bingo/internal/harness"
	"bingo/internal/san"
)

// maxJobs caps -j. Every warm worker holds one live System while its
// cell runs (a Table I machine peaks near 28 MB, mostly the LLC's line
// array), so the cap keeps the pool near 2 GB at Table I size.
const maxJobs = 64

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment list or 'all'; experiments: "+strings.Join(harness.ExperimentOrder(), " "))
		fastFlag   = flag.Bool("fast", false, "use reduced instruction budgets")
		seedFlag   = flag.Int64("seed", 1, "workload generator seed")
		formatFlag = flag.String("format", "text", "output format: text, csv, or markdown")
		jobsFlag   = flag.Int("j", 0, fmt.Sprintf("simulation workers; 1 = sequential, 0 = GOMAXPROCS, at most %d", maxJobs))
		quietFlag  = flag.Bool("quiet", false, "suppress the stderr run report")
		sanFlag    = flag.Bool("san", san.Compiled, "runtime invariant checking (needs a -tags=san build)")
		telFlag    = flag.String("telemetry", "", "export each cell's epoch time-series (JSON + Chrome trace) into this directory")
		epochFlag  = flag.Uint64("epoch", 0, "telemetry sampling period in cycles (0 = default; needs -telemetry)")
		debugFlag  = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and live progress counters on this address while running")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q (name experiments with -exp)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *sanFlag && !san.Compiled {
		fmt.Fprintln(os.Stderr, "experiments: -san requires a binary built with -tags=san")
		os.Exit(2)
	}
	san.SetEnabled(*sanFlag)

	if *jobsFlag < 0 || *jobsFlag > maxJobs {
		fmt.Fprintf(os.Stderr, "experiments: -j %d: worker count must be 0 (GOMAXPROCS) to %d\n", *jobsFlag, maxJobs)
		os.Exit(2)
	}

	if strings.Trim(*expFlag, ", ") == "" {
		fmt.Fprintf(os.Stderr, "experiments: -exp %q selects no experiment (name some, or \"all\")\n", *expFlag)
		os.Exit(2)
	}

	if *epochFlag > 0 && *telFlag == "" {
		fmt.Fprintln(os.Stderr, "experiments: -epoch requires -telemetry")
		os.Exit(2)
	}

	opts := harness.DefaultRunOptions()
	if *fastFlag {
		opts = harness.FastRunOptions()
	}
	opts.Seed = *seedFlag

	var report io.Writer = os.Stderr
	if *quietFlag {
		report = nil
	}
	cfg := harness.SuiteConfig{
		Experiments:    strings.Split(*expFlag, ","),
		Opts:           opts,
		Jobs:           *jobsFlag,
		Format:         *formatFlag,
		BudgetLabel:    budgetName(*fastFlag),
		Report:         report,
		TelemetryDir:   *telFlag,
		TelemetryEpoch: *epochFlag,
		DebugAddr:      *debugFlag,
	}

	if err := harness.RunSuite(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		var unknownExp harness.UnknownExperimentError
		var unknownFmt harness.UnknownFormatError
		if errors.As(err, &unknownExp) || errors.As(err, &unknownFmt) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func budgetName(fast bool) string {
	if fast {
		return "fast"
	}
	return "full"
}
