package harness

import (
	"fmt"
	"sync"

	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/trace"
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
	// Engine selects the simulation loop's clock-advance strategy
	// (lockstep by default). It lives here rather than in system.Config
	// because it changes only wall-clock cost, never results: the two
	// engines are proven byte-identical by the engine-differential
	// oracles, so it must not participate in configuration identity
	// (checkpoint cross-checks, warm-artifact cache keys).
	Engine system.Engine
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
	sources := w.Sources(opts.System.NumCores, opts.Seed)
	sys, err := system.New(opts.System, sources, factory)
	if err != nil {
		return system.Results{}, fmt.Errorf("harness: building system for %s: %w", w.Name, err)
	}
	sys.SetEngine(opts.Engine)
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
	sys.SetEngine(opts.Engine)
	return sys, nil
}

// RunWithSystem simulates and also returns the System so callers can
// inspect instrumented prefetcher internals (match probabilities,
// redundancy counters).
func RunWithSystem(w workloads.Spec, factory prefetch.Factory, opts RunOptions) (*system.System, system.Results, error) {
	sources := w.Sources(opts.System.NumCores, opts.Seed)
	sys, err := system.New(opts.System, sources, factory)
	if err != nil {
		return nil, system.Results{}, fmt.Errorf("harness: building system for %s: %w", w.Name, err)
	}
	sys.SetEngine(opts.Engine)
	res := sys.Run()
	return sys, res, nil
}

// BaselineCache memoises the no-prefetcher run of each workload, which
// several experiments normalise against.
//
// BaselineCache is safe for concurrent use: Get may be called from any
// number of goroutines, and two goroutines asking for the same workload
// share one in-flight simulation (singleflight) rather than racing or
// running it twice. A failed run is not cached; a later Get retries it.
type BaselineCache struct {
	opts     RunOptions
	mu       sync.Mutex
	inflight map[string]*baselineCall
}

// baselineCall is one singleflight slot of the cache.
type baselineCall struct {
	done chan struct{}
	res  system.Results
	err  error
}

// NewBaselineCache creates a cache bound to fixed run options.
func NewBaselineCache(opts RunOptions) *BaselineCache {
	return &BaselineCache{opts: opts, inflight: make(map[string]*baselineCall)}
}

// Get returns (running if necessary) the baseline results for w.
func (b *BaselineCache) Get(w workloads.Spec) (system.Results, error) {
	b.mu.Lock()
	if c, ok := b.inflight[w.Name]; ok {
		b.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &baselineCall{done: make(chan struct{})}
	b.inflight[w.Name] = c
	b.mu.Unlock()

	c.res, c.err = Run(w, nil, b.opts)
	close(c.done)
	if c.err != nil {
		// Do not memoise failures: drop the slot so a retry can run.
		b.mu.Lock()
		delete(b.inflight, w.Name)
		b.mu.Unlock()
	}
	return c.res, c.err
}

// SliceSourcesFromRecords is a convenience for tests: wraps pre-recorded
// traces as per-core sources.
func SliceSourcesFromRecords(perCore [][]trace.Record) []trace.Source {
	out := make([]trace.Source, len(perCore))
	for i, recs := range perCore {
		out[i] = trace.NewSliceSource(recs)
	}
	return out
}
