package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// EpochRow is one exported epoch: the raw sample plus the derived
// rates, so downstream tooling never has to re-implement the metric
// definitions.
type EpochRow struct {
	EpochSample
	CyclesWide   uint64  `json:"cycles"`
	Instrs       uint64  `json:"instructions"`
	IPCVal       float64 `json:"ipc"`
	MPKIVal      float64 `json:"mpki"`
	SelfCovVal   float64 `json:"self_coverage"`
	AccuracyVal  float64 `json:"accuracy"`
	RowHitVal    float64 `json:"row_hit_rate"`
	LateFracEst  float64 `json:"late_prefetch_fraction"`
	PrefetchFill uint64  `json:"prefetch_fills"`
}

func newEpochRow(e EpochSample) EpochRow {
	return EpochRow{
		EpochSample:  e,
		CyclesWide:   e.Cycles(),
		Instrs:       e.Instructions(),
		IPCVal:       e.IPC(),
		MPKIVal:      e.MPKI(),
		SelfCovVal:   e.SelfCoverage(),
		AccuracyVal:  e.Accuracy(),
		RowHitVal:    e.RowHitRate(),
		LateFracEst:  frac(e.LLC.LatePrefetch, e.LLC.PrefetchFills),
		PrefetchFill: e.LLC.PrefetchFills,
	}
}

// LifecycleReport is the exported lifecycle section: per-core counters,
// the system totals, and the derived timeliness fractions.
type LifecycleReport struct {
	PerCore        []LifecycleStats `json:"per_core,omitempty"`
	Totals         LifecycleStats   `json:"totals"`
	TimelyFraction float64          `json:"timely_fraction"`
	LateFraction   float64          `json:"late_fraction"`
	UnusedFraction float64          `json:"unused_fraction"`
	Conserves      bool             `json:"conserves"`
}

func (c *Collector) lifecycleReport() *LifecycleReport {
	if c.lc == nil {
		return nil
	}
	rep := &LifecycleReport{Totals: c.lc.Totals()}
	for i := 0; i < c.lc.NumCores(); i++ {
		rep.PerCore = append(rep.PerCore, c.lc.Core(i))
	}
	rep.TimelyFraction = rep.Totals.TimelyFraction()
	rep.LateFraction = rep.Totals.LateFraction()
	rep.UnusedFraction = rep.Totals.UnusedFraction()
	rep.Conserves = rep.Totals.Conserves()
	return rep
}

// Document is the JSON export layout.
type Document struct {
	Workload    string           `json:"workload,omitempty"`
	Prefetcher  string           `json:"prefetcher,omitempty"`
	EpochCycles uint64           `json:"epoch_cycles"`
	StartCycle  uint64           `json:"start_cycle"`
	EndCycle    uint64           `json:"end_cycle"`
	Epochs      []EpochRow       `json:"epochs"`
	Lifecycle   *LifecycleReport `json:"lifecycle,omitempty"`
	Metrics     Snapshot         `json:"metrics"`
}

// Export builds the JSON document for the collected run.
func (c *Collector) Export() Document {
	doc := Document{
		Workload:    c.Workload,
		Prefetcher:  c.Prefetcher,
		EpochCycles: c.epochCycles,
		StartCycle:  c.startCycle,
		EndCycle:    c.lastEnd,
		Epochs:      make([]EpochRow, 0, len(c.series)),
		Lifecycle:   c.lifecycleReport(),
		Metrics:     c.Metrics(),
	}
	for _, e := range c.series {
		doc.Epochs = append(doc.Epochs, newEpochRow(e))
	}
	return doc
}

// WriteJSON writes the full telemetry document as indented JSON.
// Snapshot maps marshal with sorted keys, so the output is
// byte-deterministic for identical runs.
func (c *Collector) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(c.Export(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteCSV writes the epoch series as a CSV table of the headline
// rates, one row per epoch.
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"index", "start_cycle", "end_cycle", "cycles", "instructions", "ipc",
		"llc_accesses", "llc_misses", "mpki", "self_coverage", "accuracy",
		"prefetch_fills", "late_prefetch", "dram_reads", "dram_writes", "row_hit_rate",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range c.series {
		row := []string{
			fmt.Sprintf("%d", e.Index),
			fmt.Sprintf("%d", e.StartCycle),
			fmt.Sprintf("%d", e.EndCycle),
			fmt.Sprintf("%d", e.Cycles()),
			fmt.Sprintf("%d", e.Instructions()),
			fmt.Sprintf("%.6f", e.IPC()),
			fmt.Sprintf("%d", e.LLC.Accesses),
			fmt.Sprintf("%d", e.LLC.Misses),
			fmt.Sprintf("%.6f", e.MPKI()),
			fmt.Sprintf("%.6f", e.SelfCoverage()),
			fmt.Sprintf("%.6f", e.Accuracy()),
			fmt.Sprintf("%d", e.LLC.PrefetchFills),
			fmt.Sprintf("%d", e.LLC.LatePrefetch),
			fmt.Sprintf("%d", e.DRAM.Reads),
			fmt.Sprintf("%d", e.DRAM.Writes),
			fmt.Sprintf("%.6f", e.RowHitRate()),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
