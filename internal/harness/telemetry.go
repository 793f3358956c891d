package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bingo/internal/telemetry"
)

// Matrix telemetry: when enabled, every cell run gets its own
// telemetry.Collector attached before the simulation starts, and its
// epoch series is exported — one JSON document and one Chrome
// trace_event file per cell — into the configured directory after the
// run. The collector is a pure observer, so rendered tables are
// byte-identical with telemetry on or off (the differential oracle in
// telemetry_test.go proves it); only the side files differ.

// SetTelemetry enables per-cell telemetry export into dir, sampling
// every epochCycles simulated cycles (0 selects
// telemetry.DefaultEpochCycles). The directory is created if missing.
// Passing an empty dir disables export again.
func (m *Matrix) SetTelemetry(dir string, epochCycles uint64) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: telemetry dir: %w", err)
		}
	}
	m.mu.Lock()
	m.telDir = dir
	m.telEpoch = epochCycles
	m.mu.Unlock()
	return nil
}

// telemetrySettings returns the current export configuration.
func (m *Matrix) telemetrySettings() (dir string, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.telDir, m.telEpoch
}

// newCellCollector builds the collector for one cell run, or nil when
// telemetry export is disabled.
func (m *Matrix) newCellCollector(key CellKey) *telemetry.Collector {
	dir, epoch := m.telemetrySettings()
	if dir == "" {
		return nil
	}
	tel := telemetry.NewCollector(epoch)
	tel.Workload = key.Workload
	tel.Prefetcher = key.Prefetcher
	if key.Variant != "" {
		tel.Prefetcher = key.Prefetcher + "@" + key.Variant
	}
	return tel
}

// telemetryFileBase derives the export filename stem for one cell: the
// key string with every byte outside [A-Za-z0-9._-] replaced by '_',
// plus a short hash of the unsanitised key so distinct cells can never
// collide after sanitisation.
func telemetryFileBase(key CellKey) string {
	s := key.String()
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	sum := sha256.Sum256([]byte(s))
	return string(b) + "-" + hex.EncodeToString(sum[:4])
}

// exportCellTelemetry writes the cell's collected series: <base>.json
// (the full telemetry document) and <base>.trace.json (Chrome
// trace_event) under the telemetry directory.
func (m *Matrix) exportCellTelemetry(key CellKey, tel *telemetry.Collector) error {
	dir, _ := m.telemetrySettings()
	if dir == "" || tel == nil {
		return nil
	}
	base := filepath.Join(dir, telemetryFileBase(key))
	if err := writeFileWith(base+".json", tel.WriteJSON); err != nil {
		return fmt.Errorf("harness: telemetry export %s: %w", key, err)
	}
	if err := writeFileWith(base+".trace.json", tel.WriteChromeTrace); err != nil {
		return fmt.Errorf("harness: telemetry export %s: %w", key, err)
	}
	return nil
}

// writeFileWith streams write(f) into path, creating or truncating it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	writeErr := write(f)
	closeErr := f.Close()
	if writeErr != nil {
		return writeErr
	}
	return closeErr
}

// Progress returns the live progress counters a debug server serves
// behind -debug-addr: cells completed and failed, and the instructions
// the completed cells simulated. It reads what the matrix records for
// its run report, and is safe to call from any goroutine.
func (m *Matrix) Progress() telemetry.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var instr uint64
	for _, s := range m.stats {
		instr += s.Instructions
	}
	return telemetry.Snapshot{
		"harness.cells_completed":        int64(len(m.stats)),
		"harness.cells_failed":           int64(m.failed),
		"harness.instructions_simulated": int64(instr),
	}
}
