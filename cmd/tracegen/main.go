// Command tracegen materialises a synthetic workload's memory-access
// stream into the binary trace format, so identical traces can be
// replayed (bingosim -trace) or inspected by external tools.
//
// Usage:
//
//	tracegen -workload em3d -core 0 -n 1000000 -o em3d.trc
//	tracegen -kernel lbm -n 500000 -o lbm.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"bingo/internal/system"
	"bingo/internal/trace"
	"bingo/internal/workloads"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload name (one of workloads.All)")
		kernelFlag   = flag.String("kernel", "", "single SPEC-like kernel name instead of a workload")
		coreFlag     = flag.Int("core", 0, "which core's stream to record")
		nFlag        = flag.Int("n", 1_000_000, "number of records")
		seedFlag     = flag.Int64("seed", 1, "generator seed")
		outFlag      = flag.String("o", "out.trc", "output file")
		gzFlag       = flag.Bool("gz", false, "gzip-compress the output")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracegen: unexpected argument %q (name the output with -o)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *coreFlag < 0 || *coreFlag >= system.MaxCores {
		fmt.Fprintf(os.Stderr, "tracegen: -core %d: core index must be in [0, %d)\n", *coreFlag, system.MaxCores)
		os.Exit(2)
	}
	if *nFlag <= 0 {
		// A trace with no records replays as a machine that retires nothing.
		fmt.Fprintf(os.Stderr, "tracegen: -n %d: record count must be positive\n", *nFlag)
		os.Exit(2)
	}
	src, err := buildSource(*workloadFlag, *kernelFlag, *coreFlag, *seedFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}

	f, err := os.Create(*outFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	var w interface {
		Write(trace.Record) error
		Close() error
	}
	if *gzFlag {
		w, err = trace.NewGzipWriter(f, uint64(*nFlag))
	} else {
		w, err = trace.NewWriter(f, uint64(*nFlag))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	var instr uint64
	for i := 0; i < *nFlag; i++ {
		rec, ok := src.Next()
		if !ok {
			fmt.Fprintf(os.Stderr, "tracegen: source ended after %d records\n", i)
			os.Exit(1)
		}
		instr += rec.Instructions()
		if err := w.Write(rec); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
	}
	if err := w.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	// The trace writer buffers; only a successful file close proves the
	// records reached disk. (Early os.Exit paths above leak the handle to
	// process teardown, which is fine — the output is bad either way.)
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records (%d instructions) to %s\n", *nFlag, instr, *outFlag)
}

func buildSource(workload, kernel string, core int, seed int64) (trace.Source, error) {
	switch {
	case workload != "" && kernel != "":
		return nil, fmt.Errorf("use either -workload or -kernel, not both")
	case kernel != "":
		src, ok := workloads.KernelByName(kernel, seed, core)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q (have %v)", kernel, workloads.SpecKernelNames())
		}
		return src, nil
	case workload != "":
		w, ok := workloads.ByName(workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads.Names())
		}
		sources := w.Sources(core+1, seed)
		return sources[core], nil
	default:
		return nil, fmt.Errorf("one of -workload or -kernel is required")
	}
}
