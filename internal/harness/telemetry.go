package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bingo/internal/system"
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

// SetDebugRegistry points the matrix at a registry for live progress
// counters (cells completed/failed, instructions simulated), typically
// the one a telemetry.DebugServer is serving. Nil disables mirroring.
func (m *Matrix) SetDebugRegistry(reg *telemetry.Registry) {
	m.mu.Lock()
	m.debugReg = reg
	m.mu.Unlock()
}

// telemetrySettings returns the current export configuration.
func (m *Matrix) telemetrySettings() (dir string, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.telDir, m.telEpoch
}

// debugRegistry returns the configured debug registry, if any.
func (m *Matrix) debugRegistry() *telemetry.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.debugReg
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

// recordCellOutcome mirrors per-cell progress into the debug registry,
// if one is configured. Purely observational: counters only.
func (m *Matrix) recordCellOutcome(res system.Results, err error) {
	reg := m.debugRegistry()
	if reg == nil {
		return
	}
	if err != nil {
		reg.Counter("harness.cells_failed").Inc()
		return
	}
	reg.Counter("harness.cells_completed").Inc()
	reg.Counter("harness.instructions_simulated").Add(res.WindowInstructions)
}
