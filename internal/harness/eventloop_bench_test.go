package harness

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"bingo/internal/benchenv"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// eventloopCell is one workload's lockstep-vs-event measurement in the
// BENCH_eventloop.json document.
type eventloopCell struct {
	Workload        string  `json:"workload"`
	Prefetcher      string  `json:"prefetcher"`
	LockstepSeconds float64 `json:"lockstep_seconds"`
	EventSeconds    float64 `json:"event_seconds"`
	Speedup         float64 `json:"speedup"`
	TotalCycles     uint64  `json:"total_cycles"`
	Advances        uint64  `json:"advances"`
	SkippedCycles   uint64  `json:"skipped_cycles"`
	SkippedPercent  float64 `json:"skipped_percent"`
}

// eventloopBench is the BENCH_eventloop.json document.
type eventloopBench struct {
	benchenv.Env
	Cells []eventloopCell `json:"cells"`
}

// timeEngine runs one (workload, prefetcher) cell under the given engine
// and returns the wall time, results, and engine accounting.
func timeEngine(t *testing.T, w workloads.Spec, prefetcher string, eng system.Engine, opts RunOptions) (time.Duration, system.Results, system.EngineStats) {
	t.Helper()
	factory, err := FactoryByName(prefetcher)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSystem(w, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEngine(eng)
	start := time.Now()
	res := sys.Run()
	return time.Since(start), res, sys.EngineStats()
}

// TestEmitEventloopBench measures each workload family under both
// simulation engines at the full default budget, verifies the results
// are identical, and writes BENCH_eventloop.json to the path in the
// BENCH_EVENTLOOP_JSON environment variable. It is a generator, not a
// test: without the variable it skips. Run it via `make bench-eventloop`.
//
// Beyond recording numbers, it enforces the event engine's performance
// contract: at least one memory-bound workload family must run >= 2x
// faster under the event engine at unchanged results.
func TestEmitEventloopBench(t *testing.T) {
	path := os.Getenv("BENCH_EVENTLOOP_JSON")
	if path == "" {
		t.Skip("set BENCH_EVENTLOOP_JSON=<path> to emit the event-engine benchmark")
	}
	cells := []struct {
		workload   string
		prefetcher string
		// memBound marks the families whose cores spend most cycles
		// stalled on DRAM — the stretches the event engine skips.
		memBound bool
	}{
		{"em3d", "none", true},
		{"em3d", "bingo", true},
		{"DataServing", "none", true},
		{"Zeus", "none", true},
		{"SATSolver", "none", false},
		{"Mix1", "bingo", false},
	}
	doc := eventloopBench{Env: benchenv.Capture()}
	bestMemBound := 0.0
	for _, c := range cells {
		w, ok := workloads.ByName(c.workload)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		opts := DefaultRunOptions()
		lockT, lockRes, _ := timeEngine(t, w, c.prefetcher, system.EngineLockstep, opts)
		evT, evRes, evStats := timeEngine(t, w, c.prefetcher, system.EngineEvent, opts)
		if !reflect.DeepEqual(lockRes, evRes) {
			t.Fatalf("%s/%s: engines disagree:\n lockstep: %+v\n event:    %+v", c.workload, c.prefetcher, lockRes, evRes)
		}
		cell := eventloopCell{
			Workload:        c.workload,
			Prefetcher:      c.prefetcher,
			LockstepSeconds: lockT.Seconds(),
			EventSeconds:    evT.Seconds(),
			Speedup:         lockT.Seconds() / evT.Seconds(),
			TotalCycles:     evRes.TotalCycles,
			Advances:        evStats.Advances,
			SkippedCycles:   evStats.SkippedCycles,
		}
		if total := evStats.Advances + evStats.SkippedCycles; total > 0 {
			cell.SkippedPercent = 100 * float64(evStats.SkippedCycles) / float64(total)
		}
		if c.memBound && cell.Speedup > bestMemBound {
			bestMemBound = cell.Speedup
		}
		doc.Cells = append(doc.Cells, cell)
		t.Logf("%s/%s: lockstep=%s event=%s (%.2fx, %.1f%% cycles skipped)",
			c.workload, c.prefetcher, lockT, evT, cell.Speedup, cell.SkippedPercent)
	}
	if bestMemBound < 2.0 {
		t.Errorf("best memory-bound speedup %.2fx, want >= 2x", bestMemBound)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (best memory-bound speedup %.2fx)", path, bestMemBound)
}
