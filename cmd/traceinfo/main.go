// Command traceinfo prints the offline statistics of a recorded trace or
// of a synthetic workload stream: instruction mix, dependence density,
// footprint, and the region-fill distribution that determines how much a
// spatial prefetcher can possibly cover.
//
// Usage:
//
//	traceinfo -trace run.trc
//	traceinfo -workload em3d -n 500000
//	traceinfo -kernel soplex -n 200000 -top 5
package main

import (
	"flag"
	"fmt"
	"os"

	"bingo/internal/trace"
	"bingo/internal/workloads"
)

func main() {
	var (
		traceFlag    = flag.String("trace", "", "trace file to analyse")
		workloadFlag = flag.String("workload", "", "workload name to analyse (core 0)")
		kernelFlag   = flag.String("kernel", "", "SPEC-like kernel name to analyse")
		nFlag        = flag.Int("n", 1_000_000, "records to analyse for generated streams")
		seedFlag     = flag.Int64("seed", 1, "generator seed")
		topFlag      = flag.Int("top", 10, "how many hot PCs to list (0 = none)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: unexpected argument %q (name a trace file with -trace)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *traceFlag == "" && *nFlag <= 0 {
		// Generated streams are endless: the record budget is what ends them.
		fmt.Fprintf(os.Stderr, "traceinfo: -n %d: record count must be positive for a generated stream\n", *nFlag)
		os.Exit(2)
	}
	if *topFlag < 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: -top %d: hot-PC count must not be negative (0 lists none)\n", *topFlag)
		os.Exit(2)
	}
	src, label, cleanup, err := buildSource(*traceFlag, *workloadFlag, *kernelFlag, *seedFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
		if *traceFlag != "" && *workloadFlag == "" && *kernelFlag == "" {
			os.Exit(1) // the trace file could not be opened or read
		}
		os.Exit(2)
	}

	max := *nFlag
	if *traceFlag != "" {
		max = 0 // whole file
	}
	recs := trace.Collect(src, max)
	if cleanup != nil {
		// Close the trace reader once fully consumed: a close error here
		// (e.g. a truncated gzip stream) means the statistics below were
		// computed from an incomplete record set.
		if err := cleanup(); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: closing trace: %v\n", err)
			os.Exit(1)
		}
	}
	summary := trace.Analyze(trace.NewSliceSource(recs), 0)
	fmt.Printf("source: %s\n%s", label, summary)

	if *topFlag > 0 {
		fmt.Printf("hot PCs:\n")
		for _, pc := range trace.TopPCs(recs, *topFlag) {
			fmt.Printf("  %#8x  %8d accesses (%.1f%%)\n",
				uint64(pc.PC), pc.Count, float64(pc.Count)/float64(summary.Records)*100)
		}
	}
}

// buildSource resolves the requested stream. For file-backed traces the
// returned cleanup closes the decompressor (if any) and the file; it is
// nil for generated streams.
func buildSource(tracePath, workload, kernel string, seed int64) (trace.Source, string, func() error, error) {
	set := 0
	for _, s := range []string{tracePath, workload, kernel} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, "", nil, fmt.Errorf("exactly one of -trace, -workload, -kernel is required")
	}
	switch {
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, "", nil, err
		}
		r, closer, err := trace.NewAutoReader(f)
		if err != nil {
			_ = f.Close() // best-effort: the reader error wins
			return nil, "", nil, err
		}
		cleanup := func() error {
			var first error
			if closer != nil {
				first = closer.Close()
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			return first
		}
		return r, tracePath, cleanup, nil
	case kernel != "":
		src, ok := workloads.KernelByName(kernel, seed, 0)
		if !ok {
			return nil, "", nil, fmt.Errorf("unknown kernel %q (have %v)", kernel, workloads.SpecKernelNames())
		}
		return src, "kernel " + kernel, nil, nil
	default:
		w, ok := workloads.ByName(workload)
		if !ok {
			return nil, "", nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads.Names())
		}
		return w.Sources(1, seed)[0], "workload " + workload, nil, nil
	}
}
