package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: the epoch series rendered as counter
// tracks that chrome://tracing and Perfetto plot directly. The format
// nominally interprets "ts" as microseconds; we emit simulated cycles
// (1 cycle = 1 "µs"), which preserves relative shape and keeps the
// axes meaningful as cycle counts. Documented in DESIGN.md §8.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceDoc is the top-level trace file object.
type traceDoc struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the epoch series as a Chrome trace_event
// file: one counter track per headline metric, per-core IPC tracks,
// and a span covering the measurement window.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	label := "bingosim"
	if c.Workload != "" || c.Prefetcher != "" {
		label = fmt.Sprintf("bingosim %s/%s", c.Workload, c.Prefetcher)
	}
	events := []traceEvent{{
		Name:  "process_name",
		Phase: "M",
		PID:   0,
		Args:  map[string]any{"name": label},
	}}
	if c.begun {
		events = append(events, traceEvent{
			Name:  "measurement",
			Phase: "X",
			TS:    c.startCycle,
			Dur:   c.lastEnd - c.startCycle,
			PID:   0,
			TID:   1,
			Args:  map[string]any{"epochs": len(c.series)},
		})
	}
	counter := func(name string, ts uint64, args map[string]any) {
		events = append(events, traceEvent{Name: name, Phase: "C", TS: ts, PID: 0, Args: args})
	}
	for _, e := range c.series {
		ts := e.StartCycle
		counter("IPC", ts, map[string]any{"ipc": round6(e.IPC())})
		counter("MPKI", ts, map[string]any{"mpki": round6(e.MPKI())})
		counter("self-coverage %", ts, map[string]any{"cov": round6(e.SelfCoverage() * 100)})
		counter("accuracy %", ts, map[string]any{"acc": round6(e.Accuracy() * 100)})
		counter("row-hit %", ts, map[string]any{"rowhit": round6(e.RowHitRate() * 100)})
		ipcArgs := make(map[string]any, len(e.PerCore))
		for ci, cs := range e.PerCore {
			v := 0.0
			if e.Cycles() > 0 {
				v = float64(cs.Instructions) / float64(e.Cycles())
			}
			ipcArgs[fmt.Sprintf("core%d", ci)] = round6(v)
		}
		counter("per-core IPC", ts, ipcArgs)
	}
	doc := traceDoc{
		TraceEvents: events,
		OtherData: map[string]any{
			"workload":        c.Workload,
			"prefetcher":      c.Prefetcher,
			"epoch_cycles":    c.epochCycles,
			"time_unit":       "simulated cycles (rendered as µs)",
			"generator":       "bingo internal/telemetry",
			"epochs_recorded": len(c.series),
		},
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// round6 trims float noise so trace files stay byte-deterministic
// across platforms with the same inputs.
func round6(v float64) float64 {
	return float64(int64(v*1e6+0.5)) / 1e6
}
