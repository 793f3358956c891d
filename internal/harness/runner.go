package harness

import (
	"fmt"

	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// RunOptions bound a single simulation.
type RunOptions struct {
	// System is the machine configuration (zero value: Table I defaults).
	System system.Config
	// Seed decorrelates workload generators between runs; translation
	// uses System.Seed. The same (workload, Seed) pair always produces
	// the identical trace, which is what makes cross-prefetcher
	// comparisons exact.
	Seed int64
}

// DefaultRunOptions returns the paper-faithful configuration.
func DefaultRunOptions() RunOptions {
	return RunOptions{System: system.DefaultConfig(), Seed: 1}
}

// FastRunOptions shrinks instruction budgets for tests and benchmarks
// (the shape of the results is preserved; absolute values are noisier).
func FastRunOptions() RunOptions {
	o := DefaultRunOptions()
	o.System = o.System.Scaled(50_000, 200_000)
	return o
}

// Run simulates one workload under one prefetcher factory and returns the
// results. Traces are materialised once per call so that back-to-back
// runs with different prefetchers see identical access streams.
func Run(w workloads.Spec, factory prefetch.Factory, opts RunOptions) (system.Results, error) {
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		return system.Results{}, err
	}
	return sys.Run(), nil
}

// RunNamed resolves the prefetcher by registry name and runs it.
func RunNamed(w workloads.Spec, prefetcher string, opts RunOptions) (system.Results, error) {
	factory, err := FactoryByName(prefetcher)
	if err != nil {
		return system.Results{}, err
	}
	return Run(w, factory, opts)
}

// BuildSystem assembles — without running — the System a Run call with the
// same arguments would drive, so callers can attach observers first. The
// differential oracles use it to install per-core demand taps (see
// cpu.SetDemandTap) before calling Run themselves.
func BuildSystem(w workloads.Spec, factory prefetch.Factory, opts RunOptions) (*system.System, error) {
	sources := w.Sources(opts.System.NumCores, opts.Seed)
	sys, err := system.New(opts.System, sources, factory)
	if err != nil {
		return nil, fmt.Errorf("harness: building system for %s: %w", w.Name, err)
	}
	return sys, nil
}
