package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bingo/internal/telemetry"
	"bingo/internal/workloads"
)

// telemetryTestEpoch keeps several epochs inside the tiny measured
// window the harness tests simulate.
const telemetryTestEpoch = 10_000

// telemetryTestWorkload is the workload the telemetry tests simulate:
// dependence-heavy enough that mid-stream ROB/LSQ state matters.
func telemetryTestWorkload(t *testing.T) workloads.Spec {
	t.Helper()
	w, ok := workloads.ByName("DataServing")
	if !ok {
		t.Fatal("workload DataServing not registered")
	}
	return w
}

// readTelemetryDoc loads and decodes one exported cell document.
func readTelemetryDoc(t *testing.T, dir string, key CellKey) telemetry.Document {
	t.Helper()
	path := filepath.Join(dir, telemetryFileBase(key)+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading export for %s: %v", key, err)
	}
	var doc telemetry.Document
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("decoding export for %s: %v", key, err)
	}
	return doc
}

// TestMatrixTelemetryIsPureObserver is the harness-level differential
// oracle: enabling per-cell telemetry export must not change any cell's
// Results, and both export files must appear for every cell (including
// the lifecycle-free baseline).
func TestMatrixTelemetryIsPureObserver(t *testing.T) {
	w := telemetryTestWorkload(t)
	opts := tinyOptions()

	plain := NewMatrix(opts)
	dir := t.TempDir()
	within := NewMatrix(opts)
	if err := within.SetTelemetry(dir, telemetryTestEpoch); err != nil {
		t.Fatal(err)
	}

	for _, pf := range []string{"none", "bingo"} {
		want, err := plain.Get(w, pf)
		if err != nil {
			t.Fatalf("%s without telemetry: %v", pf, err)
		}
		got, err := within.Get(w, pf)
		if err != nil {
			t.Fatalf("%s with telemetry: %v", pf, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: results differ with telemetry enabled", pf)
		}
		base := filepath.Join(dir, telemetryFileBase(CellKey{Workload: w.Name, Prefetcher: pf}))
		for _, path := range []string{base + ".json", base + ".trace.json"} {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: missing export %s: %v", pf, path, err)
			}
		}
	}
}

// TestTelemetryExportProperties is the property suite over a real
// exported document: every derived fraction lies in [0,1], the epochs
// tile the measurement window exactly, the epoch deltas sum to the
// end-of-run metric totals, and the lifecycle counters conserve and
// agree with the cell's Results.
func TestTelemetryExportProperties(t *testing.T) {
	w := telemetryTestWorkload(t)
	m := NewMatrix(tinyOptions())
	dir := t.TempDir()
	if err := m.SetTelemetry(dir, telemetryTestEpoch); err != nil {
		t.Fatal(err)
	}
	res, err := m.Get(w, "bingo")
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Workload: w.Name, Prefetcher: "bingo"}
	doc := readTelemetryDoc(t, dir, key)

	if len(doc.Epochs) < 2 {
		t.Fatalf("want >= 2 epochs in a %d-cycle-epoch run, got %d", telemetryTestEpoch, len(doc.Epochs))
	}
	inUnit := func(name string, v float64) {
		t.Helper()
		if v < 0 || v > 1 {
			t.Errorf("%s = %v, want within [0,1]", name, v)
		}
	}

	if doc.Epochs[0].StartCycle != doc.StartCycle {
		t.Errorf("first epoch starts at %d, document at %d", doc.Epochs[0].StartCycle, doc.StartCycle)
	}
	if last := doc.Epochs[len(doc.Epochs)-1]; last.EndCycle != doc.EndCycle {
		t.Errorf("last epoch ends at %d, document at %d", last.EndCycle, doc.EndCycle)
	}
	for i, e := range doc.Epochs {
		if i > 0 && e.StartCycle != doc.Epochs[i-1].EndCycle {
			t.Errorf("epoch %d starts at %d, previous ended at %d (gap or overlap)", i, e.StartCycle, doc.Epochs[i-1].EndCycle)
		}
		if e.EndCycle <= e.StartCycle {
			t.Errorf("epoch %d is empty or inverted: [%d, %d)", i, e.StartCycle, e.EndCycle)
		}
		inUnit("self_coverage", e.SelfCovVal)
		inUnit("accuracy", e.AccuracyVal)
		inUnit("row_hit_rate", e.RowHitVal)
		inUnit("late_prefetch_fraction", e.LateFracEst)
		if e.IPCVal < 0 {
			t.Errorf("epoch %d: negative IPC %v", i, e.IPCVal)
		}
	}

	var instr, accesses, misses, fills, reads, writes uint64
	for _, e := range doc.Epochs {
		instr += e.Instrs
		accesses += e.LLC.Accesses
		misses += e.LLC.Misses
		fills += e.LLC.PrefetchFills
		reads += e.DRAM.Reads
		writes += e.DRAM.Writes
	}
	metric := func(name string) uint64 {
		v, ok := doc.Metrics[name]
		if !ok {
			t.Errorf("metric %q missing from export", name)
		}
		return uint64(v)
	}
	sums := []struct {
		name string
		got  uint64
	}{
		{"sim.instructions", instr},
		{"llc.accesses", accesses},
		{"llc.misses", misses},
		{"llc.prefetch_fills", fills},
		{"dram.reads", reads},
		{"dram.writes", writes},
	}
	for _, s := range sums {
		if want := metric(s.name); s.got != want {
			t.Errorf("epoch sum of %s = %d, end-of-run total %d", s.name, s.got, want)
		}
	}

	lc := doc.Lifecycle
	if lc == nil {
		t.Fatal("bingo cell exported no lifecycle section")
	}
	if !lc.Conserves || !lc.Totals.Conserves() {
		t.Errorf("lifecycle counters do not conserve: %+v", lc.Totals)
	}
	if lc.Totals != res.Timeliness {
		t.Errorf("exported lifecycle totals %+v differ from Results.Timeliness %+v", lc.Totals, res.Timeliness)
	}
	var perCoreSum telemetry.LifecycleStats
	for _, c := range lc.PerCore {
		perCoreSum = perCoreSum.Add(c)
	}
	if perCoreSum != lc.Totals {
		t.Errorf("per-core lifecycle sum %+v differs from totals %+v", perCoreSum, lc.Totals)
	}
	inUnit("timely_fraction", lc.TimelyFraction)
	inUnit("late_fraction", lc.LateFraction)
	inUnit("unused_fraction", lc.UnusedFraction)
	if lc.Totals.Fills == 0 {
		t.Error("bingo issued no prefetch fills in the measured window; the property run is vacuous")
	}

	// The Chrome trace carries one IPC counter event per epoch and
	// declares the measurement span.
	tracePath := filepath.Join(dir, telemetryFileBase(key)+".trace.json")
	traceBuf, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBuf, &tdoc); err != nil {
		t.Fatalf("decoding Chrome trace: %v", err)
	}
	ipcEvents, spans := 0, 0
	for _, e := range tdoc.TraceEvents {
		if e.Name == "IPC" && e.Phase == "C" {
			ipcEvents++
		}
		if e.Name == "measurement" && e.Phase == "X" {
			spans++
		}
	}
	if ipcEvents != len(doc.Epochs) {
		t.Errorf("trace has %d IPC counter events, want one per epoch (%d)", ipcEvents, len(doc.Epochs))
	}
	if spans != 1 {
		t.Errorf("trace has %d measurement spans, want 1", spans)
	}
}

// TestTimelinessExperiment builds the timeliness table end to end —
// which doubles as the production-path conservation oracle, since the
// builder errors on any cell whose lifecycle counters fail to conserve.
func TestTimelinessExperiment(t *testing.T) {
	opts := tinyOptions()
	opts.System.WarmupInstr = 5_000
	opts.System.MeasureInstr = 10_000
	m := NewMatrix(opts)
	table, err := BuildExperiment("timeliness", m)
	if err != nil {
		t.Fatalf("timeliness: %v", err)
	}
	wantRows := len(workloads.All())*len(PaperPrefetchers()) + len(PaperPrefetchers())
	if len(table.Rows) != wantRows {
		t.Errorf("timeliness table has %d rows, want %d", len(table.Rows), wantRows)
	}
	var buf bytes.Buffer
	table.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Timely", "Late", "Unused", "Aggregate", "bingo"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeliness table lacks %q", want)
		}
	}
}

// TestTelemetryFileBase pins the sanitisation contract: names stay
// filesystem-safe and distinct keys can never collide.
func TestTelemetryFileBase(t *testing.T) {
	a := telemetryFileBase(CellKey{Workload: "em3d", Prefetcher: "bingo[hist=2048]"})
	b := telemetryFileBase(CellKey{Workload: "em3d", Prefetcher: "bingo[hist_2048]"})
	if a == b {
		t.Errorf("distinct keys sanitise to the same file base %q", a)
	}
	for _, base := range []string{a, b} {
		if strings.ContainsAny(base, "/[]=@ ") {
			t.Errorf("file base %q contains unsanitised bytes", base)
		}
	}
	c := telemetryFileBase(CellKey{Workload: "em3d", Prefetcher: "bingo", Variant: "seed=3"})
	if !strings.HasPrefix(c, "em3d_bingo_seed_3-") {
		t.Errorf("file base %q does not embed the sanitised key", c)
	}
}
