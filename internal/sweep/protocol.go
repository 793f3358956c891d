// Package sweep turns the experiment suite into a distributed service: a
// coordinator plans the CellKey-identified job queue of a suite run and
// serves it over HTTP to workers, which lease jobs, simulate them with
// the exact same harness code a local run uses, and post the results
// back. Because every simulation is a pure function of (CellKey,
// RunOptions) — the property the suite's determinism oracles already
// enforce — the coordinator can inject worker results into its run
// matrix and render tables byte-identical to a single-process run,
// regardless of worker count, scheduling order, or mid-run crashes.
//
// The failure model is crash-stop workers over a lossy network: leases
// expire when heartbeats stop and jobs are re-leased (bounded by a retry
// budget); completions are idempotent with first-success-wins (safe
// precisely because results are deterministic); jobs that exhaust their
// retries fall back to lazy local simulation at render time, so a sweep
// always terminates with correct tables.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bingo/internal/harness"
	"bingo/internal/system"
)

// ProtocolVersion is the wire format version. Every envelope carries it;
// decoders reject any other value, so incompatible coordinator/worker
// builds fail loudly at the first message instead of corrupting a sweep.
const ProtocolVersion = 3

// Size caps bound every decoder's allocation regardless of what the peer
// (or a fuzzer) sends. They are generous multiples of real message
// sizes, not tight fits.
const (
	// MaxJobBytes caps a job envelope (a cell key plus full run options).
	MaxJobBytes = 1 << 20
	// MaxResultBytes caps a result envelope, including inlined telemetry
	// documents (a few hundred KB each at default epochs).
	MaxResultBytes = 64 << 20
	// MaxControlBytes caps small control messages (heartbeats).
	MaxControlBytes = 4 << 10
	// MaxArtifactBytes caps one warm-start checkpoint artifact.
	MaxArtifactBytes = 256 << 20
)

// Job is one leased unit of work: a planned matrix cell plus the lease
// that entitles the worker to run it. (Key, Opts) fully determines the
// simulation — see harness.CellRunner.
type Job struct {
	Version int `json:"version"`
	// ID identifies the job across lease/heartbeat/complete exchanges
	// (the cell key's canonical string).
	ID string `json:"id"`
	// LeaseID identifies this particular lease of the job. A re-leased
	// job gets a fresh LeaseID; control messages quoting a stale one are
	// rejected.
	LeaseID string `json:"lease_id"`
	// Attempt counts leases of this job, starting at 1.
	Attempt int `json:"attempt"`
	// LeaseTTLMillis is how long the lease lasts without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`

	Key  harness.CellKey    `json:"key"`
	Opts harness.RunOptions `json:"opts"`
}

// TelemetryFile is one exported telemetry document riding back with a
// result. Only the suffix travels: the coordinator derives the filename
// stem from the cell key itself, so a worker cannot name files.
type TelemetryFile struct {
	// Suffix selects the document kind; it must be one of
	// harness-exported suffixes (".json", ".trace.json").
	Suffix string `json:"suffix"`
	// Data is the document body (base64 in JSON).
	Data []byte `json:"data"`
}

// Result reports one finished (or failed) job execution.
type Result struct {
	Version int    `json:"version"`
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
	// Error is the execution failure, if any; empty means success and
	// the payload fields below are meaningful.
	Error string `json:"error,omitempty"`
	// DurationNS is the worker-measured simulation wall time, recorded
	// in the coordinator's run report.
	DurationNS int64 `json:"duration_ns"`

	Results   system.Results  `json:"results"`
	Aux       harness.CellAux `json:"aux"`
	Telemetry []TelemetryFile `json:"telemetry,omitempty"`
}

// Control is a small job-scoped control message (heartbeat).
type Control struct {
	Version int    `json:"version"`
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
}

// Config describes the sweep to a connecting worker.
type Config struct {
	Version int `json:"version"`
	// Telemetry asks workers to collect and return per-cell telemetry
	// documents, sampled every TelemetryEpoch cycles (0 = default).
	Telemetry      bool   `json:"telemetry"`
	TelemetryEpoch uint64 `json:"telemetry_epoch"`
	// Warm advertises the coordinator's artifact cache endpoints.
	Warm bool `json:"warm"`
}

// Progress is the coordinator's sweep-progress snapshot.
type Progress struct {
	Version int `json:"version"`
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Retries counts re-leases: leases granted beyond each job's first.
	Retries int `json:"retries"`
}

// encodeJSON marshals one envelope for the wire.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding %T: %w", v, err)
	}
	return data, nil
}

// decodeCapped decodes one JSON envelope from r into v, enforcing the
// byte cap and rejecting unknown fields and trailing garbage.
func decodeCapped(r io.Reader, maxBytes int64, v any, what string) error {
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return fmt.Errorf("sweep: reading %s: %w", what, err)
	}
	if int64(len(data)) > maxBytes {
		return fmt.Errorf("sweep: %s exceeds %d-byte cap", what, maxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("sweep: decoding %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("sweep: trailing data after %s", what)
	}
	return nil
}

// checkVersion rejects any version but the current one.
func checkVersion(got int, what string) error {
	if got != ProtocolVersion {
		return fmt.Errorf("sweep: %s version %d, want %d", what, got, ProtocolVersion)
	}
	return nil
}

// DecodeJob decodes and validates one job envelope.
func DecodeJob(r io.Reader) (Job, error) {
	var j Job
	if err := decodeCapped(r, MaxJobBytes, &j, "job"); err != nil {
		return Job{}, err
	}
	if err := checkVersion(j.Version, "job"); err != nil {
		return Job{}, err
	}
	if j.ID == "" || j.LeaseID == "" {
		return Job{}, fmt.Errorf("sweep: job missing id or lease_id")
	}
	if j.LeaseTTLMillis <= 0 {
		return Job{}, fmt.Errorf("sweep: job lease TTL %d ms out of range", j.LeaseTTLMillis)
	}
	return j, nil
}

// DecodeResult decodes and validates one result envelope.
func DecodeResult(r io.Reader) (Result, error) {
	var res Result
	if err := decodeCapped(r, MaxResultBytes, &res, "result"); err != nil {
		return Result{}, err
	}
	if err := checkVersion(res.Version, "result"); err != nil {
		return Result{}, err
	}
	if res.JobID == "" || res.LeaseID == "" {
		return Result{}, fmt.Errorf("sweep: result missing job_id or lease_id")
	}
	for _, f := range res.Telemetry {
		if f.Suffix != ".json" && f.Suffix != ".trace.json" {
			return Result{}, fmt.Errorf("sweep: result telemetry suffix %q not allowed", f.Suffix)
		}
	}
	return res, nil
}

// DecodeControl decodes and validates one control envelope.
func DecodeControl(r io.Reader) (Control, error) {
	var c Control
	if err := decodeCapped(r, MaxControlBytes, &c, "control"); err != nil {
		return Control{}, err
	}
	if err := checkVersion(c.Version, "control"); err != nil {
		return Control{}, err
	}
	if c.JobID == "" || c.LeaseID == "" {
		return Control{}, fmt.Errorf("sweep: control missing job_id or lease_id")
	}
	return c, nil
}

// DecodeConfig decodes and validates one sweep-config envelope.
func DecodeConfig(r io.Reader) (Config, error) {
	var c Config
	if err := decodeCapped(r, MaxControlBytes, &c, "config"); err != nil {
		return Config{}, err
	}
	if err := checkVersion(c.Version, "config"); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DecodeProgress decodes and validates one progress envelope.
func DecodeProgress(r io.Reader) (Progress, error) {
	var p Progress
	if err := decodeCapped(r, MaxControlBytes, &p, "progress"); err != nil {
		return Progress{}, err
	}
	if err := checkVersion(p.Version, "progress"); err != nil {
		return Progress{}, err
	}
	return p, nil
}
