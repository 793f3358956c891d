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
// Results.String), with the sanitizer enabled when compiled so the skip
// audit (DESIGN.md §6b) re-checks every jump the event engine takes.
//
// A companion property — no waker may ever schedule a wakeup at or
// before the current clock — is enforced unconditionally: sched.Queue
// panics on violation (see internal/sched, TestNextWakePanicsOnPastWakeup),
// so every event-engine run below doubles as a property test of it.

// runBothEngines runs one cell under the lockstep and event engines and
// returns both results plus the event run's skip accounting.
func runBothEngines(t *testing.T, w workloads.Spec, prefetcher string, opts RunOptions) (lock, ev system.Results, stats system.EngineStats) {
	t.Helper()
	factory, err := FactoryByName(prefetcher)
	if err != nil {
		t.Fatalf("resolving %q: %v", prefetcher, err)
	}
	opts.Engine = system.EngineLockstep
	lock, err = Run(w, factory, opts)
	if err != nil {
		t.Fatalf("lockstep run %s/%s: %v", w.Name, prefetcher, err)
	}
	opts.Engine = system.EngineEvent
	factory, err = FactoryByName(prefetcher) // fresh factory: instances are per-system
	if err != nil {
		t.Fatalf("resolving %q: %v", prefetcher, err)
	}
	sys, ev, err := RunWithSystem(w, factory, opts)
	if err != nil {
		t.Fatalf("event run %s/%s: %v", w.Name, prefetcher, err)
	}
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
// bound workload the event engine must take strictly fewer clock
// advances than cycles simulated, i.e. the skip machinery engages. A
// regression that silently degenerates to +1 stepping would keep results
// identical and slip past the differential tests; this one catches it.
func TestEngineActuallySkips(t *testing.T) {
	w, ok := workloads.ByName("Zeus")
	if !ok {
		t.Fatal("workload Zeus not registered")
	}
	opts := oracleRunOptions()
	_, _, stats := runBothEngines(t, w, "none", opts)
	if stats.SkippedCycles == 0 {
		t.Fatalf("event engine skipped no cycles on Zeus/none (advances=%d)", stats.Advances)
	}
	t.Logf("Zeus/none: advances=%d skipped=%d", stats.Advances, stats.SkippedCycles)
}

// TestEngineDifferentialTelemetry requires the epoch series — the most
// skip-sensitive artifact, since a jump across an epoch edge would merge
// epochs — to match exactly between engines.
func TestEngineDifferentialTelemetry(t *testing.T) {
	w, ok := workloads.ByName("em3d")
	if !ok {
		t.Fatal("workload em3d not registered")
	}
	opts := oracleRunOptions()
	series := func(engine system.Engine) ([]telemetry.EpochSample, system.Results) {
		factory, err := FactoryByName("bingo")
		if err != nil {
			t.Fatalf("resolving bingo: %v", err)
		}
		opts.Engine = engine
		sys, err := BuildSystem(w, factory, opts)
		if err != nil {
			t.Fatalf("building system: %v", err)
		}
		col := telemetry.NewCollector(0)
		sys.EnableTelemetry(col)
		res := sys.Run()
		return col.Series(), res
	}
	lockSeries, lockRes := series(system.EngineLockstep)
	evSeries, evRes := series(system.EngineEvent)
	requireIdentical(t, "em3d/bingo+telemetry", lockRes, evRes)
	if !reflect.DeepEqual(lockSeries, evSeries) {
		t.Fatalf("epoch series diverged: lockstep %d epochs, event %d epochs",
			len(lockSeries), len(evSeries))
	}
	if len(lockSeries) < 2 {
		t.Fatalf("want >= 2 epochs for a meaningful comparison, got %d", len(lockSeries))
	}
}
