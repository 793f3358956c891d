//go:build !san

package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bingo/internal/system"
	"bingo/internal/trace"
	"bingo/internal/workloads"
)

// The whole simulated machine must not allocate once warm: every access
// walks the cores, both cache levels, translation, DRAM, the prefetcher
// and the workload generator or trace reader, and a heap allocation on
// any of them is paid hundreds of millions of times in a full run.
// TestSystemSteadyStateAllocations runs the measurement window of real
// Systems with every allocation sampled and names each allocating site.
// It covers what a call graph cannot see (the standard library, the
// branches only some workloads or prefetchers take) because it only
// looks at what a run executes. The sanitizer build allocates by design,
// so the test runs in untagged builds only.

// steadyAllocAllowed names the functions whose allocations the window
// may contain, with why each costs a run nothing per access.
var steadyAllocAllowed = map[string]string{
	// The page table grows once per 64-page span first touched.
	"bingo/internal/vm.(*Translator).newLeaf": "page-table leaf for a first-touched span",
	// The shuffled frame list is materialised 64Ki frames at a time.
	"bingo/internal/vm.(*Translator).refillFreeList": "free-list chunk, once per 64Ki new pages",
	// Results are built once, after the window closes.
	"bingo/internal/system.(*System).collect": "end-of-run results",
	// A type assertion's first sight of a dynamic type adds it to the
	// runtime's per-site cache, once per process.
	"runtime.typeAssert": "type-assertion cache, once per site and type",
}

func TestSystemSteadyStateAllocations(t *testing.T) {
	opts := FastRunOptions()
	type cell struct {
		name  string
		build func() (*system.System, error)
	}
	named := func(w workloads.Spec, pf string) cell {
		return cell{w.Name + "/" + pf, func() (*system.System, error) {
			factory, err := FactoryByName(pf)
			if err != nil {
				return nil, err
			}
			return BuildSystem(w, factory, opts)
		}}
	}
	var cells []cell
	all := workloads.All()
	paper := append([]string{"none"}, PaperPrefetchers()...)
	inPaper := map[string]bool{}
	for _, pf := range paper {
		inPaper[pf] = true
	}
	for _, w := range all {
		for _, pf := range paper {
			cells = append(cells, named(w, pf))
		}
	}
	// Every other registered prefetcher runs once, on a workload whose
	// footprints make the pattern prefetchers predict.
	em3d, ok := workloads.ByName("em3d")
	if !ok {
		t.Fatal("workload em3d not registered")
	}
	for _, pf := range PrefetcherNames() {
		if !inPaper[pf] {
			cells = append(cells, named(em3d, pf))
		}
	}
	// A recorded trace puts trace.Reader on the path in place of a
	// generator.
	tracePath := writeSteadyAllocTrace(t, em3d, opts)
	cells = append(cells, cell{"trace/bingo", func() (*system.System, error) {
		factory, err := FactoryByName("bingo")
		if err != nil {
			return nil, err
		}
		sources := make([]trace.Source, opts.System.NumCores)
		for i := range sources {
			f, err := os.Open(tracePath)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { f.Close() })
			r, err := trace.NewReader(f)
			if err != nil {
				return nil, err
			}
			sources[i] = r
		}
		return system.New(opts.System, sources, factory)
	}})

	for _, c := range cells {
		sys, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sys.RunWarmup()
		sites := allocSites(func() { sys.Run() })
		for _, s := range sites {
			if steadyAllocAllowed[s.fn] != "" {
				continue
			}
			t.Errorf("%s: %d allocation(s) in the measurement window at\n%s", c.name, s.count, s.stack)
		}
	}
}

// writeSteadyAllocTrace records core 0 of w into a trace file holding
// enough instructions to outlast the warm-up and measurement budgets.
func writeSteadyAllocTrace(t *testing.T, w workloads.Spec, opts RunOptions) string {
	t.Helper()
	need := opts.System.WarmupInstr + opts.System.MeasureInstr
	src := w.Sources(1, opts.Seed)[0]
	var recs []trace.Record
	for instr := uint64(0); instr < 2*need; {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
		instr += rec.Instructions()
	}
	path := filepath.Join(t.TempDir(), w.Name+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f, uint64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := tw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// allocSite is one allocating call stack seen during a window.
type allocSite struct {
	count int64
	fn    string // the allow-listed frame, if any, else the innermost simulator frame
	stack string
}

// allocSites runs f with every allocation sampled and returns the
// simulator call stacks that allocated, with their counts. Stacks
// without a frame in this module belong to other goroutines and are
// left out.
func allocSites(f func()) []allocSite {
	before := memProfileCounts()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	f()
	runtime.MemProfileRate = rate
	var out []allocSite
	for stk, n := range memProfileCounts() {
		if n -= before[stk]; n <= 0 {
			continue
		}
		if s, ok := describeStack(stk); ok {
			s.count = n
			out = append(out, s)
		}
	}
	return out
}

// memProfileCounts returns the cumulative allocation count of every
// profiled stack. Two collections first publish every allocation made
// so far (the profile lags the heap by up to two cycles).
func memProfileCounts() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	counts := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		counts[r.Stack0] += r.AllocObjects
	}
	return counts
}

// describeStack formats stk and picks the frame it is judged by: the
// first allow-listed frame, else the innermost frame in this module.
func describeStack(stk [32]uintptr) (allocSite, bool) {
	var pcs []uintptr
	for _, pc := range stk {
		if pc == 0 {
			break
		}
		pcs = append(pcs, pc)
	}
	var s allocSite
	var b strings.Builder
	frames := runtime.CallersFrames(pcs)
	for {
		fr, more := frames.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
		if fr.Function == "bingo/internal/harness.memProfileCounts" {
			return allocSite{}, false // the profile read itself
		}
		if steadyAllocAllowed[fr.Function] != "" {
			s.fn = fr.Function
		} else if s.fn == "" && strings.HasPrefix(fr.Function, "bingo/") {
			s.fn = fr.Function
		}
		if !more {
			break
		}
	}
	s.stack = b.String()
	return s, s.fn != ""
}
