package harness

import (
	"errors"
	"runtime"
	"sync"
)

// PlannedCell is one schedulable unit of the run matrix: a cell key plus
// a thunk that performs (and memoises) the simulation under the cell's
// run options. The thunk calls the same Matrix accessor the experiment's
// renderer will call, so a warmed cell is guaranteed to be a cache hit at
// render time.
type PlannedCell struct {
	Key CellKey
	run func() error
}

// Engine executes planned cells on a bounded worker pool. The zero value
// is usable: Jobs <= 0 selects runtime.GOMAXPROCS(0) workers.
//
// Because every cell is memoised (and deduplicated in flight) by the
// Matrix, the engine's scheduling order has no effect on results — only
// on wall-clock time. Determinism of rendered output is owned by the
// renderers, which walk the matrix in a fixed order after warming.
type Engine struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
}

// jobs resolves the effective worker count.
func (e Engine) jobs() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Warm runs every planned cell, deduplicated by key, using the engine's
// worker pool. All cells are attempted even if some fail; the returned
// error joins the failures in plan order (nil if all succeeded).
func (e Engine) Warm(cells []PlannedCell) error {
	unique := dedupeCells(cells)
	j := e.jobs()
	if j <= 1 {
		// Sequential: today's behaviour, in plan order.
		var errs []error
		for _, c := range unique {
			if err := c.run(); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	work := make(chan int)
	errs := make([]error, len(unique))
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = unique[i].run()
			}
		}()
	}
	for i := range unique {
		work <- i
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}

// dedupeCells keeps the first occurrence of each key. Duplicates are
// harmless (the Matrix would singleflight them) but would occupy pool
// slots just to wait on the first occurrence's run.
func dedupeCells(cells []PlannedCell) []PlannedCell {
	seen := make(map[CellKey]struct{}, len(cells))
	out := make([]PlannedCell, 0, len(cells))
	for _, c := range cells {
		if _, ok := seen[c.Key]; ok {
			continue
		}
		seen[c.Key] = struct{}{}
		out = append(out, c)
	}
	return out
}
