package harness

import (
	"bytes"
	"reflect"
	"testing"

	"bingo/internal/san"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// The checkpoint differential oracle: pausing a simulation at an
// arbitrary clock advance, serialising it, restoring it into a freshly
// built system, and finishing there must be indistinguishable from the
// uninterrupted run — deeply equal Results and byte-identical rendered
// output. Because the checkpoint round-trips every piece of mutable
// state (caches, DRAM bank timing, ROBs, translator RNG cursor,
// prefetcher metadata), any component whose Save/Load pair drops or
// distorts a field shows up here as a divergence.

// checkpointOracleWorkload is the trace every resume-equivalence case
// uses; dependence-heavy enough that mid-stream ROB/LSQ state matters.
func checkpointOracleWorkload(t *testing.T) workloads.Spec {
	t.Helper()
	w, ok := workloads.ByName("DataServing")
	if !ok {
		t.Fatal("workload DataServing not registered")
	}
	return w
}

// buildFor assembles a fresh system for the named prefetcher.
func buildFor(t *testing.T, w workloads.Spec, prefetcher string, opts RunOptions) *system.System {
	t.Helper()
	factory, err := FactoryByName(prefetcher)
	if err != nil {
		t.Fatalf("resolving %q: %v", prefetcher, err)
	}
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		t.Fatalf("building system for %s/%s: %v", w.Name, prefetcher, err)
	}
	return sys
}

// pauseAndSnapshot runs sys until the clock reaches pauseAt, then
// serialises it. It fails the test if the run completes
// before pausing.
func pauseAndSnapshot(t *testing.T, sys *system.System, pauseAt uint64) []byte {
	t.Helper()
	sys.SetPauseAt(pauseAt)
	if _, paused := sys.RunResumable(); !paused {
		t.Fatalf("run completed before the pause point (cycle %d)", pauseAt)
	}
	sys.SetPauseAt(0)
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("saving checkpoint: %v", err)
	}
	return buf.Bytes()
}

// resumeCase runs one prefetcher uninterrupted, then pauses a second run
// at frac of the uninterrupted end clock, snapshots, restores into a
// third freshly built system, and requires all three finishes to agree.
func resumeCase(t *testing.T, w workloads.Spec, prefetcher string, opts RunOptions, frac float64) {
	t.Helper()
	ref := buildFor(t, w, prefetcher, opts)
	want := ref.Run()
	pauseAt := uint64(float64(ref.Clock()) * frac)
	if pauseAt == 0 {
		pauseAt = 1
	}

	paused := buildFor(t, w, prefetcher, opts)
	snapshot := pauseAndSnapshot(t, paused, pauseAt)

	// The paused system itself must finish identically...
	if got := paused.Run(); !reflect.DeepEqual(want, got) {
		t.Errorf("%s: paused-and-continued run diverged:\n  want %+v\n  got  %+v", prefetcher, want, got)
	}
	// ...and so must a fresh system restored from the snapshot.
	restored := buildFor(t, w, prefetcher, opts)
	if err := restored.LoadCheckpoint(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("%s: restoring checkpoint: %v", prefetcher, err)
	}
	got := restored.Run()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: restored run diverged:\n  want %+v\n  got  %+v", prefetcher, want, got)
	}
	if want.String() != got.String() {
		t.Errorf("%s: rendered output differs after restore:\n--- want ---\n%s--- got ---\n%s",
			prefetcher, want.String(), got.String())
	}
}

// TestResumeEquivalenceAllPrefetchers pauses every registered prefetcher
// mid-measurement and requires the restored run to be exact. The
// sanitizer is enabled (in san builds) so the restored state also has to
// pass the full invariant sweep while finishing.
func TestResumeEquivalenceAllPrefetchers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every prefetcher twice; skipped in -short")
	}
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(true)
	w := checkpointOracleWorkload(t)
	opts := tinyOptions()
	for _, name := range PrefetcherNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			resumeCase(t, w, name, opts, 0.5)
		})
	}
}

// TestResumeEquivalenceMidWarmup pauses inside the warm-up phase (before
// the stats reset) and at several other fractions, on a representative
// subset, so the phase machine's warm-up→measure transition is crossed
// by restored runs too.
func TestResumeEquivalenceMidWarmup(t *testing.T) {
	defer san.SetEnabled(san.Compiled)
	san.SetEnabled(true)
	w := checkpointOracleWorkload(t)
	opts := tinyOptions()
	for _, name := range []string{"none", "bingo", "bingo-shared", "fdp-sms"} {
		for _, frac := range []float64{0.05, 0.9} {
			resumeCase(t, w, name, opts, frac)
		}
	}
}

// TestWarmStartCheckpointResume saves exactly at the warm-up boundary
// (where RunWarmup stops) and requires the restored measurement phase
// to match a cold run.
func TestWarmStartCheckpointResume(t *testing.T) {
	w := checkpointOracleWorkload(t)
	opts := tinyOptions()
	for _, name := range []string{"none", "bingo"} {
		ref := buildFor(t, w, name, opts)
		want := ref.Run()

		warmed := buildFor(t, w, name, opts)
		warmed.RunWarmup()
		var buf bytes.Buffer
		if err := warmed.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("%s: saving warm checkpoint: %v", name, err)
		}
		restored := buildFor(t, w, name, opts)
		if err := restored.LoadCheckpoint(&buf); err != nil {
			t.Fatalf("%s: restoring warm checkpoint: %v", name, err)
		}
		if got := restored.Run(); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: warm-start run diverged:\n  want %+v\n  got  %+v", name, want, got)
		}
	}
}

// TestCheckpointRejectsMismatchedMachine: a snapshot must only restore
// into the machine shape that saved it.
func TestCheckpointRejectsMismatchedMachine(t *testing.T) {
	w := checkpointOracleWorkload(t)
	opts := tinyOptions()
	src := buildFor(t, w, "bingo", opts)
	src.RunWarmup()
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()

	// Different prefetcher.
	other := buildFor(t, w, "sms", opts)
	if err := other.LoadCheckpoint(bytes.NewReader(snapshot)); err == nil {
		t.Error("bingo snapshot restored into an sms machine")
	}
	// Different configuration.
	bigger := opts
	bigger.System.LLC.SizeBytes *= 2
	mis := buildFor(t, w, "bingo", bigger)
	if err := mis.LoadCheckpoint(bytes.NewReader(snapshot)); err == nil {
		t.Error("snapshot restored into a differently configured machine")
	}
	// A non-fresh system.
	used := buildFor(t, w, "bingo", opts)
	used.Run()
	if err := used.LoadCheckpoint(bytes.NewReader(snapshot)); err == nil {
		t.Error("snapshot restored into an already-run system")
	}
	// The pristine snapshot still restores cleanly after all that.
	ok := buildFor(t, w, "bingo", opts)
	if err := ok.LoadCheckpoint(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}
}

// TestCheckpointCorruptionNeverSilentlyWrong flips bits across a
// system-level snapshot and requires every flip to either fail the load
// or — when it lands in bytes outside any checksum's coverage, such as
// gzip header metadata — restore to a system that finishes identically.
func TestCheckpointCorruptionNeverSilentlyWrong(t *testing.T) {
	if testing.Short() {
		t.Skip("attempts many restores; skipped in -short")
	}
	w := checkpointOracleWorkload(t)
	opts := tinyOptions()
	opts.System.WarmupInstr = 2_000
	opts.System.MeasureInstr = 5_000

	src := buildFor(t, w, "bingo", opts)
	snapshot := pauseAndSnapshot(t, src, 1_000)
	ref := buildFor(t, w, "bingo", opts)
	if err := ref.LoadCheckpoint(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("restoring pristine snapshot: %v", err)
	}
	want := ref.Run().String()

	// Sampling every stride-th byte keeps the test seconds-fast while
	// still covering header, section table, and payload regions.
	stride := len(snapshot)/257 + 1
	flipped, survived := 0, 0
	for off := 0; off < len(snapshot); off += stride {
		corrupt := append([]byte(nil), snapshot...)
		corrupt[off] ^= 1 << (off % 8)
		flipped++
		sys := buildFor(t, w, "bingo", opts)
		if err := sys.LoadCheckpoint(bytes.NewReader(corrupt)); err != nil {
			continue // detected: good
		}
		survived++
		if got := sys.Run().String(); got != want {
			t.Fatalf("bit flip at offset %d loaded silently and changed results:\n--- want ---\n%s--- got ---\n%s",
				off, want, got)
		}
	}
	t.Logf("flipped %d sampled bytes: %d loads survived (all behaviourally identical)", flipped, survived)
}
