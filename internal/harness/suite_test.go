package harness

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bingo/internal/telemetry"
)

// TestInjectRendersIdentically is Inject's contract as RenderTables sees
// it: a fresh suite matrix holding only injected copies of another
// matrix's cells — the instrumented aux payloads of fig2 and fig4
// included — renders byte-identical tables without simulating anything.
// A second Inject of a key is refused and keeps the first result.
func TestInjectRendersIdentically(t *testing.T) {
	cfg := SuiteConfig{
		Experiments: []string{"table2", "fig2", "fig4"},
		Opts:        microOptions(),
		Jobs:        1,
		BudgetLabel: "micro",
	}
	src, names, err := NewSuiteMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := RenderTables(&want, cfg, src, names); err != nil {
		t.Fatal(err)
	}

	dst, _, err := NewSuiteMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events, redundancy int
	for _, c := range dedupeCells(PlanExperiments(names, src)) {
		if c.Key.Variant != "" {
			t.Fatalf("cell %v runs under modified options; this test replays base-option cells only", c.Key)
		}
		res, aux, err := src.ExecuteCell(c.Key, src.Options())
		if err != nil {
			t.Fatal(err)
		}
		switch aux.(type) {
		case EventCounters:
			events++
		case RedundancyCounters:
			redundancy++
		}
		if !dst.Inject(c.Key, res, aux, time.Millisecond) {
			t.Fatalf("first Inject of %v refused", c.Key)
		}
	}
	if events == 0 || redundancy == 0 {
		t.Fatalf("injected %d EventCounters and %d RedundancyCounters payloads; want both", events, redundancy)
	}
	if got := src.Runs(); got != dst.Runs() {
		t.Fatalf("injected %d cells, source matrix ran %d", dst.Runs(), got)
	}

	injected := dst.Runs()
	var got bytes.Buffer
	if err := RenderTables(&got, cfg, dst, names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("injected matrix rendered different tables:\n--- simulated ---\n%s\n--- injected ---\n%s", want.Bytes(), got.Bytes())
	}
	if dst.Runs() != injected {
		t.Fatalf("rendering an injected matrix simulated %d more cells", dst.Runs()-injected)
	}

	key := CellKey{Workload: "em3d", Prefetcher: "multievent2[probe]"}
	first, firstAux, err := dst.ExecuteCell(key, dst.Options())
	if err != nil {
		t.Fatal(err)
	}
	forged := first
	forged.WindowInstructions++
	if dst.Inject(key, forged, RedundancyCounters{BothHit: 1 << 40}, time.Second) {
		t.Fatal("second Inject of an existing key returned true")
	}
	res, aux, err := dst.ExecuteCell(key, dst.Options())
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowInstructions != first.WindowInstructions || aux != firstAux {
		t.Fatalf("second Inject replaced the first result: got %d instructions, aux %+v; want %d, %+v",
			res.WindowInstructions, aux, first.WindowInstructions, firstAux)
	}
	if dst.Runs() != injected {
		t.Fatalf("refused Inject changed the run count: %d, want %d", dst.Runs(), injected)
	}
}

// TestRunSuiteRejectsUnknownFormat pins that a bad -format fails before
// any simulation instead of silently rendering text.
func TestRunSuiteRejectsUnknownFormat(t *testing.T) {
	reg := telemetry.NewRegistry()
	var out, report bytes.Buffer
	err := RunSuite(&out, SuiteConfig{
		Experiments: []string{"table2"},
		Opts:        microOptions(),
		Jobs:        2,
		Format:      "bogus",
		Report:      &report,
		Debug:       reg,
	})
	var unknown UnknownFormatError
	if !errors.As(err, &unknown) || unknown.Format != "bogus" {
		t.Fatalf("RunSuite(Format: bogus) = %v, want UnknownFormatError", err)
	}
	if n := reg.Counter("harness.cells_completed").Value() + reg.Counter("harness.cells_failed").Value(); n != 0 {
		t.Fatalf("%d cells ran before the format was rejected", n)
	}
	if out.Len() != 0 || report.Len() != 0 {
		t.Fatalf("rejected run wrote output: stdout %q, report %q", out.String(), report.String())
	}
	for _, f := range []string{"", "text", "csv", "markdown"} {
		if err := checkFormat(f); err != nil {
			t.Errorf("checkFormat(%q) = %v, want nil", f, err)
		}
	}
}
