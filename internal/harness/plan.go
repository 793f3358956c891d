package harness

import (
	"errors"
	"sync"

	"bingo/internal/prefetch"
	"bingo/internal/system"
)

// The suite runs in three steps: plan, warm, render. Planning runs the
// renderers themselves against a recording Matrix: each cell a renderer
// asks for is noted instead of simulated and answered with zero Results
// (and its probe's zero payload). A renderer picks its cells by walking
// fixed lists of workloads, prefetchers and sweep points, never by the
// values it reads back, so the recorded plan is exactly the set of cells
// the real render requests (TestPlanMatchesRender pins it). Warming then
// simulates the plan on a worker pool, and rendering reads memoised
// cells only.

// PlannedCell is one schedulable unit of the run matrix: a cell key and
// the run options it simulates under.
type PlannedCell struct {
	Key  CellKey
	opts RunOptions
}

// cellPlan collects the distinct cells a recording Matrix was asked
// for, in first-request order.
type cellPlan struct {
	cells []PlannedCell
	seen  map[CellKey]bool
}

// record notes one requested cell in a recording matrix's plan and
// answers it without simulating: zero Results, plus the payload probe
// derives from no prefetchers, which is its type's zero value.
func (m *Matrix) record(key CellKey, opts RunOptions, probe func([]prefetch.Prefetcher) any) (system.Results, any, error) {
	m.mu.Lock()
	if !m.plan.seen[key] {
		m.plan.seen[key] = true
		m.plan.cells = append(m.plan.cells, PlannedCell{Key: key, opts: opts})
	}
	m.mu.Unlock()
	var aux any
	if probe != nil {
		aux = probe(nil)
	}
	return system.Results{}, aux, nil
}

// PlanExperiments lists every cell the named experiments will request,
// once each, in the order their renderers first request them. It records
// the renderers against a matrix with m's base options, so m itself is
// neither read nor changed. A name that fails to build (unknown, say)
// contributes the cells requested before the failure; rendering reports
// the error.
func PlanExperiments(names []string, m *Matrix) []PlannedCell {
	rec := &Matrix{opts: m.opts, plan: &cellPlan{seen: make(map[CellKey]bool)}}
	for _, name := range names {
		// The render step rebuilds every name and reports its error.
		_, _ = BuildExperiment(name, rec)
	}
	return rec.plan.cells
}

// warm simulates the planned cells into m on min(jobs, len(cells))
// workers, which take cells in plan order. Every cell is attempted even
// if some fail; the returned error joins the failures in plan order.
// Results do not depend on jobs: a cell is a pure function of its key
// and options, and the Matrix memoises each one once.
func warm(m *Matrix, cells []PlannedCell, jobs int) error {
	work := make(chan int)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for range min(jobs, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				_, _, errs[i] = m.ExecuteCell(cells[i].Key, cells[i].opts)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}
