package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// collected builds a small finished collector with a lifecycle bound.
func collected(t *testing.T) *Collector {
	t.Helper()
	lc := NewLifecycle(2)
	c := NewCollector(100)
	c.BindLifecycle(lc)
	c.Workload = "em3d"
	c.Prefetcher = "bingo"
	c.Begin(0)
	lc.Predicted(0, 4)
	lc.PrefetchFill(0)
	lc.PrefetchFill(0)
	lc.PrefetchFill(0)
	lc.PrefetchRedundant(0)
	lc.PrefetchUse(0, false, 10)
	lc.PrefetchUse(0, true, 3)
	c.Sample(100, totalsAt(10, 2))
	c.Finish(190, totalsAt(25, 2))
	return c
}

func TestWriteJSON(t *testing.T) {
	c := collected(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Workload != "em3d" || doc.Prefetcher != "bingo" {
		t.Errorf("labels = %q/%q", doc.Workload, doc.Prefetcher)
	}
	if len(doc.Epochs) != 2 {
		t.Fatalf("exported %d epochs, want 2", len(doc.Epochs))
	}
	if doc.Lifecycle == nil || !doc.Lifecycle.Conserves {
		t.Fatalf("lifecycle report missing or non-conserving: %+v", doc.Lifecycle)
	}
	if doc.Lifecycle.Totals.Issued != 4 {
		t.Errorf("lifecycle issued = %d, want 4", doc.Lifecycle.Totals.Issued)
	}
	if doc.Metrics["prefetch.use_margin_cycles.count"] != 1 {
		t.Errorf("metrics snapshot missing margin histogram: %v", doc.Metrics)
	}

	// Export is byte-deterministic.
	var buf2 bytes.Buffer
	if err := c.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated JSON export differs")
	}
}

func TestWriteCSV(t *testing.T) {
	c := collected(t)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 epochs
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "index,start_cycle,end_cycle,cycles,instructions,ipc") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,100,100,") {
		t.Fatalf("first CSV row = %q", lines[1])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := collected(t)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var counters, metas, spans int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "C":
			counters++
		case "M":
			metas++
		case "X":
			spans++
		}
	}
	if metas != 1 || spans != 1 {
		t.Errorf("trace has %d metadata and %d span events, want 1 and 1", metas, spans)
	}
	// 6 counter tracks per epoch × 2 epochs.
	if counters != 12 {
		t.Errorf("trace has %d counter events, want 12", counters)
	}
	if doc.OtherData["workload"] != "em3d" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
}

func TestRound6(t *testing.T) {
	if round6(1.23456789) != 1.234568 {
		t.Errorf("round6(1.23456789) = %v", round6(1.23456789))
	}
	if round6(0) != 0 {
		t.Errorf("round6(0) = %v", round6(0))
	}
}
