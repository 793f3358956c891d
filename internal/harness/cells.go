package harness

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// CellKey names one cell of the experiment run matrix. Every simulation
// the suite performs — registry prefetchers, custom-config variants, and
// runs under modified system options — is identified by exactly one key,
// which is what makes singleflight deduplication and deterministic
// re-rendering possible.
type CellKey struct {
	// Workload is the Spec.Name of the workload.
	Workload string
	// Prefetcher is the registry name, or a bracketed variant label such
	// as "bingo[hist=2048]" for custom-config runs.
	Prefetcher string
	// Variant encodes a deviation from the matrix's base RunOptions
	// ("seed=3", "queue=16", ...); empty for the base options.
	Variant string
}

// String renders the key as workload/prefetcher[@variant].
func (k CellKey) String() string {
	if k.Variant == "" {
		return k.Workload + "/" + k.Prefetcher
	}
	return k.Workload + "/" + k.Prefetcher + "@" + k.Variant
}

// CellStat records one completed simulation for the run report.
type CellStat struct {
	Key CellKey
	// Duration is the wall-clock time of the simulation itself
	// (excluding any time spent waiting on another goroutine's
	// in-flight run of the same cell).
	Duration time.Duration
	// Instructions is the measured-window instruction total.
	Instructions uint64
	// AllocBytes is the heap allocated during the run. It is only
	// attributable when runs execute one at a time; with more than one
	// warm worker it is recorded as -1 (unknown).
	AllocBytes int64
}

// cellState is one singleflight slot: the first caller to claim a key
// runs the simulation; later callers block on done and share the result.
type cellState struct {
	done chan struct{}
	res  system.Results
	aux  any
	err  error
}

// cellFunc performs one simulation, returning the results plus an
// optional instrumented payload (e.g. internal prefetcher counters).
type cellFunc func() (system.Results, any, error)

// run is the memoising singleflight core shared by every Matrix
// accessor. fn executes at most once per key for the lifetime of the
// Matrix; concurrent callers of the same key wait for the in-flight run
// instead of duplicating it.
func (m *Matrix) run(key CellKey, fn cellFunc) (system.Results, any, error) {
	m.mu.Lock()
	if cs, ok := m.cells[key]; ok {
		m.mu.Unlock()
		<-cs.done
		return cs.res, cs.aux, cs.err
	}
	cs := &cellState{done: make(chan struct{})}
	m.cells[key] = cs
	trackAllocs := m.trackAllocs
	m.mu.Unlock()

	var before runtime.MemStats
	if trackAllocs {
		runtime.ReadMemStats(&before)
	}
	//lint:ignore detlint wall clock times cell execution for the run report; no simulated state depends on it
	t0 := time.Now()
	cs.res, cs.aux, cs.err = fn()
	dur := time.Since(t0) //lint:ignore detlint same reporting-only timing as t0 above
	allocBytes := int64(-1)
	if trackAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocBytes = int64(after.TotalAlloc - before.TotalAlloc)
	}
	close(cs.done)

	m.mu.Lock()
	if cs.err == nil {
		m.stats = append(m.stats, CellStat{
			Key:          key,
			Duration:     dur,
			Instructions: cs.res.WindowInstructions,
			AllocBytes:   allocBytes,
		})
	} else {
		// Do not memoise failures: waiters already blocked on this call
		// see the error, but a later request for the key may retry.
		delete(m.cells, key)
		m.failed++
	}
	m.mu.Unlock()
	return cs.res, cs.aux, cs.err
}

// RunCell memoises an arbitrary simulation under key. build constructs a
// fresh factory for this run (it must not return a shared instance that
// another concurrent cell could also be mutating); probe, if non-nil,
// extracts an instrumented payload from the finished system's
// prefetchers before they are discarded. opts are the options for this
// cell — key.Variant must be non-empty whenever opts differ from the
// Matrix's base options.
func (m *Matrix) RunCell(key CellKey, opts RunOptions, build func() (prefetch.Factory, error), probe func([]prefetch.Prefetcher) any) (system.Results, any, error) {
	w, ok := workloads.ByName(key.Workload)
	if !ok {
		return system.Results{}, nil, fmt.Errorf("harness: unknown workload %q", key.Workload)
	}
	return m.run(key, func() (system.Results, any, error) {
		var factory prefetch.Factory
		var err error
		if build != nil {
			factory, err = build()
		}
		var sys *system.System
		if err == nil {
			sys, err = BuildSystem(w, factory, opts)
		}
		if err != nil {
			return system.Results{}, nil, err
		}
		// The collector is nil when telemetry export is off.
		tel := m.newCellCollector(key)
		if tel != nil {
			sys.EnableTelemetry(tel)
		}
		res := sys.Run()
		if err := m.exportCellTelemetry(key, tel); err != nil {
			return system.Results{}, nil, err
		}
		var aux any
		if probe != nil {
			aux = probe(sys.Prefetchers())
		}
		return res, aux, nil
	})
}

// Inject memoises results the caller computed outside the matrix, so
// renderers see a cache hit instead of re-simulating. Simulations are a
// pure function of (key, options), so injecting what ExecuteCell would
// have produced leaves rendered tables byte-identical. Returns false
// (and leaves the matrix unchanged) when the cell already exists; the
// first result wins, mirroring the singleflight rule for matrix runs.
// dur is the caller-measured simulation time, recorded in the run
// report's per-cell stats.
func (m *Matrix) Inject(key CellKey, res system.Results, aux any, dur time.Duration) bool {
	cs := &cellState{done: make(chan struct{}), res: res, aux: aux}
	close(cs.done)
	m.mu.Lock()
	if _, ok := m.cells[key]; ok {
		m.mu.Unlock()
		return false
	}
	m.cells[key] = cs
	m.stats = append(m.stats, CellStat{
		Key:          key,
		Duration:     dur,
		Instructions: res.WindowInstructions,
		AllocBytes:   -1,
	})
	m.mu.Unlock()
	return true
}

// Stats returns a copy of the per-cell run statistics collected so far,
// sorted by descending duration (the report's reading order).
func (m *Matrix) Stats() []CellStat {
	m.mu.Lock()
	out := make([]CellStat, len(m.stats))
	copy(out, m.stats)
	m.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// Runs returns how many distinct cells have been simulated.
func (m *Matrix) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stats)
}

// SetAllocTracking enables per-cell allocation accounting (reading
// runtime.MemStats around each run). Only meaningful when cells execute
// one at a time; the suite enables it for -j 1 and disables it
// otherwise, since concurrent runs would attribute each other's heap
// traffic.
func (m *Matrix) SetAllocTracking(on bool) {
	m.mu.Lock()
	m.trackAllocs = on
	m.mu.Unlock()
}
