package harness

import (
	"fmt"
	"reflect"
	"testing"

	"bingo/internal/san"
	"bingo/internal/system"
	"bingo/internal/telemetry"
	"bingo/internal/workloads"
)

// The engine-differential oracle. The event engine (system.EngineEvent)
// claims to be a pure wall-clock optimisation: it must reproduce the
// lockstep loop's results bit for bit — every counter, every IPC digit,
// every telemetry epoch — on every prefetcher and every workload. These
// tests run each cell under both engines and compare the full Results
// struct (reflect.DeepEqual) and the rendered report (byte equality of
// Results.String), with the sanitizer enabled when compiled so the
// ordering audit (DESIGN.md §6b) re-checks every memory operation the
// event engine issues and every cut it takes.

// runEngine builds one cell, selects the engine, and runs it to
// completion. Every call resolves a fresh factory: prefetcher instances
// are per-system.
func runEngine(t *testing.T, w workloads.Spec, prefetcher string, eng system.Engine, opts RunOptions) (*system.System, system.Results) {
	t.Helper()
	factory, err := FactoryByName(prefetcher)
	if err != nil {
		t.Fatalf("resolving %q: %v", prefetcher, err)
	}
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		t.Fatalf("building %s/%s: %v", w.Name, prefetcher, err)
	}
	sys.SetEngine(eng)
	return sys, sys.Run()
}

// runBothEngines runs one cell under the lockstep reference and the
// default event engine and returns both results plus the event run's
// skip accounting.
func runBothEngines(t *testing.T, w workloads.Spec, prefetcher string, opts RunOptions) (lock, ev system.Results, stats system.EngineStats) {
	t.Helper()
	_, lock = runEngine(t, w, prefetcher, system.EngineLockstep, opts)
	sys, ev := runEngine(t, w, prefetcher, system.EngineEvent, opts)
	return lock, ev, sys.EngineStats()
}

// requireIdentical fails the test unless the two engines produced the
// same results, both structurally and as rendered text.
func requireIdentical(t *testing.T, label string, lock, ev system.Results) {
	t.Helper()
	if !reflect.DeepEqual(lock, ev) {
		t.Errorf("%s: event engine diverged from lockstep\nlockstep:\n%s\nevent:\n%s",
			label, lock.String(), ev.String())
		return
	}
	if ls, es := lock.String(), ev.String(); ls != es {
		t.Errorf("%s: Results.String differs despite equal structs\nlockstep:\n%s\nevent:\n%s",
			label, ls, es)
	}
}

// TestEngineDifferentialAllPrefetchers runs every registered prefetcher
// on two structurally different workloads — em3d (regular, prefetch-
// friendly) and Zeus (pointer chains, spatially inconsistent) — under
// both engines and requires byte-identical results.
func TestEngineDifferentialAllPrefetchers(t *testing.T) {
	if testing.Short() {
		t.Skip("engine differential matrix is slow")
	}
	defer san.SetEnabled(san.Compiled) // restore the build-flavor default
	san.SetEnabled(san.Compiled)
	opts := oracleRunOptions()
	for _, wname := range []string{"em3d", "Zeus"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %q not registered", wname)
		}
		for _, p := range PrefetcherNames() {
			lock, ev, _ := runBothEngines(t, w, p, opts)
			requireIdentical(t, w.Name+"/"+p, lock, ev)
		}
	}
}

// TestEngineDifferentialAllWorkloads covers every registered workload
// (the prefetcher matrix above covers breadth on the other axis) with
// the baseline and the paper's prefetcher.
func TestEngineDifferentialAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("engine differential matrix is slow")
	}
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(san.Compiled)
	opts := oracleRunOptions()
	for _, w := range workloads.All() {
		for _, p := range []string{"none", "bingo"} {
			lock, ev, _ := runBothEngines(t, w, p, opts)
			requireIdentical(t, w.Name+"/"+p, lock, ev)
		}
	}
}

// coreScaledOptions is the oracle machine scaled to cores (WithCores)
// with short budgets: the differential compares every cycle, so a small
// window at 16 cores proves as much about ordering as a long one at 4.
func coreScaledOptions(cores int) RunOptions {
	opts := oracleRunOptions()
	opts.System = opts.System.WithCores(cores).Scaled(2_000, 20_000)
	return opts
}

// TestEngineDifferentialCoreCounts adds core count as an input: the
// scaled 8- and 16-core machines (larger LLC, more DRAM channels, more
// cores contending) on em3d (regular) and Zeus (pointer chains),
// baseline and Bingo.
func TestEngineDifferentialCoreCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("engine differential matrix is slow")
	}
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(san.Compiled)
	for _, cores := range []int{8, 16} {
		opts := coreScaledOptions(cores)
		for _, wname := range []string{"em3d", "Zeus"} {
			w, ok := workloads.ByName(wname)
			if !ok {
				t.Fatalf("workload %q not registered", wname)
			}
			for _, p := range []string{"none", "bingo"} {
				lock, ev, _ := runBothEngines(t, w, p, opts)
				requireIdentical(t, fmt.Sprintf("%s/%s cores=%d", w.Name, p, cores), lock, ev)
			}
		}
	}
}

// TestEngineActuallySkips pins the optimisation itself: on a memory-
// bound workload the event engine must land on strictly fewer cycles
// than it simulates, and its global loop may iterate only once per
// memory operation or cut. A regression that silently degenerates to
// per-cycle stepping would keep results identical and slip past the
// differential tests; this one catches it.
func TestEngineActuallySkips(t *testing.T) {
	w, ok := workloads.ByName("Zeus")
	if !ok {
		t.Fatal("workload Zeus not registered")
	}
	opts := oracleRunOptions()
	opts.System.WarmupInstr = 0 // every L1 access is in the measured counters
	factory, err := FactoryByName("none")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	stats := sys.EngineStats()
	if stats.SkippedCycles == 0 {
		t.Fatalf("event engine skipped no cycles on Zeus/none (advances=%d)", stats.Advances)
	}
	var demand uint64
	for _, c := range sys.Cores() {
		demand += c.Stats().Loads + c.Stats().Stores
	}
	if stats.Advances > demand+stats.Cuts {
		t.Fatalf("event engine took %d advances for %d L1 demand accesses and %d cuts",
			stats.Advances, demand, stats.Cuts)
	}
	t.Logf("Zeus/none: advances=%d (demand=%d cuts=%d) skipped=%d",
		stats.Advances, demand, stats.Cuts, stats.SkippedCycles)
}

// TestDefaultRunIsEventDriven pins the production default: a system
// built the way every run builds it, with no engine selected, runs the
// event engine and actually skips cycles.
func TestDefaultRunIsEventDriven(t *testing.T) {
	w, ok := workloads.ByName("em3d")
	if !ok {
		t.Fatal("workload em3d not registered")
	}
	factory, err := FactoryByName("bingo")
	if err != nil {
		t.Fatalf("resolving bingo: %v", err)
	}
	sys, err := BuildSystem(w, factory, FastRunOptions())
	if err != nil {
		t.Fatalf("building system: %v", err)
	}
	if got := sys.Engine(); got != system.EngineEvent {
		t.Fatalf("default engine = %d, want EngineEvent (%d)", got, system.EngineEvent)
	}
	sys.Run()
	if stats := sys.EngineStats(); stats.SkippedCycles == 0 {
		t.Fatalf("default run skipped no cycles on em3d/bingo (advances=%d)", stats.Advances)
	}
}

// runWithTelemetry runs one bingo cell under eng with a telemetry
// collector of the given epoch and returns its results, its epoch series
// and the cycle its warm-up ended on. With stopAtWarmup the run first
// stops at the warm-up→measurement boundary (RunWarmup) and then
// finishes from there; otherwise it runs straight through.
func runWithTelemetry(t *testing.T, w workloads.Spec, eng system.Engine, opts RunOptions, epoch uint64, stopAtWarmup bool) (system.Results, []telemetry.EpochSample, uint64) {
	t.Helper()
	factory, err := FactoryByName("bingo")
	if err != nil {
		t.Fatalf("resolving bingo: %v", err)
	}
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		t.Fatalf("building system: %v", err)
	}
	sys.SetEngine(eng)
	col := telemetry.NewCollector(epoch)
	sys.EnableTelemetry(col)
	var warmEnd uint64
	if stopAtWarmup {
		sys.RunWarmup()
		warmEnd = sys.Clock()
	}
	res := sys.Run()
	return res, col.Series(), warmEnd
}

// TestEngineDifferentialTelemetry requires the epoch series — the most
// skip-sensitive artifact, since a jump across an epoch edge would merge
// epochs — to match exactly between engines. A short epoch puts many
// cuts in each run, on a regular workload (em3d) and a pointer chase
// (Zeus), and every run crosses the warm-up→measurement cycle, where
// every core ticks twice.
func TestEngineDifferentialTelemetry(t *testing.T) {
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(san.Compiled)
	opts := oracleRunOptions()
	const epoch = 20_000
	for _, wname := range []string{"em3d", "Zeus"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %q not registered", wname)
		}
		lockRes, lockSeries, _ := runWithTelemetry(t, w, system.EngineLockstep, opts, epoch, false)
		evRes, evSeries, _ := runWithTelemetry(t, w, system.EngineEvent, opts, epoch, false)
		requireIdentical(t, wname+"/bingo+telemetry", lockRes, evRes)
		if !reflect.DeepEqual(lockSeries, evSeries) {
			t.Errorf("%s: epoch series diverged: lockstep %d epochs, event %d epochs",
				wname, len(lockSeries), len(evSeries))
		}
		if len(lockSeries) < 3 {
			t.Errorf("%s: want >= 3 epochs for a meaningful comparison, got %d", wname, len(lockSeries))
		}
	}
}

// TestEngineDifferentialCutPoints stops runs exactly on the event
// engine's warm-up→measurement cut (RunWarmup), where every core ticks
// twice, and requires both engines to stop on the same cycle and, when
// finished from there, to reproduce the uninterrupted lockstep run's
// results and epoch series.
func TestEngineDifferentialCutPoints(t *testing.T) {
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(san.Compiled)
	opts := oracleRunOptions()
	const epoch = 20_000
	for _, wname := range []string{"em3d", "Zeus"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %q not registered", wname)
		}
		ref, refSeries, _ := runWithTelemetry(t, w, system.EngineLockstep, opts, epoch, false)
		var lockEnd uint64
		for _, eng := range []system.Engine{system.EngineLockstep, system.EngineEvent} {
			res, series, end := runWithTelemetry(t, w, eng, opts, epoch, true)
			label := fmt.Sprintf("%s/bingo engine=%d stopped at warm-up end", wname, eng)
			if end == 0 {
				t.Fatalf("%s: warm-up ended on cycle 0", label)
			}
			if eng == system.EngineLockstep {
				lockEnd = end
			} else if end != lockEnd {
				t.Errorf("%s: warm-up ended on cycle %d, lockstep on %d", label, end, lockEnd)
			}
			requireIdentical(t, label, ref, res)
			if !reflect.DeepEqual(refSeries, series) {
				t.Errorf("%s: epoch series diverged (%d vs %d epochs)", label, len(series), len(refSeries))
			}
		}
	}
}

// TestEngineDifferentialMachines covers the machine shapes the other
// differential tests do not: the prefetcher attached at the L1
// (ablate-level), where its fills go into a private cache, and a
// single-core machine, where no other core's operations interleave.
func TestEngineDifferentialMachines(t *testing.T) {
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(san.Compiled)
	l1 := oracleRunOptions()
	l1.System.PrefetchAt = system.AttachL1
	one := oracleRunOptions()
	one.System = one.System.WithCores(1)
	for _, m := range []struct {
		name string
		opts RunOptions
	}{{"attach-l1", l1}, {"1-core", one}} {
		for _, wname := range []string{"em3d", "Zeus"} {
			w, ok := workloads.ByName(wname)
			if !ok {
				t.Fatalf("workload %q not registered", wname)
			}
			for _, p := range []string{"none", "bingo", "sms"} {
				lock, ev, _ := runBothEngines(t, w, p, m.opts)
				requireIdentical(t, fmt.Sprintf("%s/%s %s", w.Name, p, m.name), lock, ev)
			}
		}
	}
}
