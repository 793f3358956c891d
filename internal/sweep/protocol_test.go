package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bingo/internal/harness"
)

// sampleJob builds a fully populated job envelope.
func sampleJob() Job {
	return Job{
		Version:        ProtocolVersion,
		ID:             "SATSolver/bingo",
		LeaseID:        "lease-1",
		Attempt:        1,
		LeaseTTLMillis: 60_000,
		Key:            harness.CellKey{Workload: "SATSolver", Prefetcher: "bingo"},
		Opts:           harness.DefaultRunOptions(),
	}
}

func TestJobRoundTrip(t *testing.T) {
	want := sampleJob()
	data, err := encodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestResultRoundTrip(t *testing.T) {
	want := Result{
		Version:    ProtocolVersion,
		JobID:      "SATSolver/bingo",
		LeaseID:    "lease-1",
		DurationNS: 123456789,
		Aux:        harness.CellAux{Events: &harness.EventCounters{Predicted: 7, Lookups: 11}},
		Telemetry:  []TelemetryFile{{Suffix: ".json", Data: []byte(`{"x":1}`)}},
	}
	want.Results.TotalCycles = 99
	data, err := encodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	j := sampleJob()
	j.Version = ProtocolVersion + 1
	data, err := encodeJSON(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJob(bytes.NewReader(data)); err == nil {
		t.Fatal("wrong-version job decoded")
	}
}

func TestDecodeRejectsOversizedEnvelope(t *testing.T) {
	huge := append([]byte(`{"version":2,"job_id":"x","lease_id":"y","error":"`),
		bytes.Repeat([]byte("a"), MaxResultBytes)...)
	huge = append(huge, []byte(`"}`)...)
	_, err := DecodeResult(bytes.NewReader(huge))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized result: err=%v, want size-cap rejection", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	data, err := encodeJSON(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte(`{"version":1}`)...)
	if _, err := DecodeJob(bytes.NewReader(data)); err == nil {
		t.Fatal("job with trailing data decoded")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeControl(strings.NewReader(
		`{"version":2,"job_id":"a","lease_id":"b","evil":true}`)); err == nil {
		t.Fatal("control with unknown field decoded")
	}
}

func TestDecodeRejectsBadTelemetrySuffix(t *testing.T) {
	res := Result{Version: ProtocolVersion, JobID: "a", LeaseID: "b",
		Telemetry: []TelemetryFile{{Suffix: "../../evil", Data: []byte("x")}}}
	data, err := encodeJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(bytes.NewReader(data)); err == nil {
		t.Fatal("result with path-traversal telemetry suffix decoded")
	}
}

func TestDecodeRejectsMissingLeaseTTL(t *testing.T) {
	j := sampleJob()
	j.LeaseTTLMillis = 0
	data, err := encodeJSON(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJob(bytes.NewReader(data)); err == nil {
		t.Fatal("job without lease TTL decoded")
	}
}

func TestValidArtifactHash(t *testing.T) {
	ok := strings.Repeat("0a", 32)
	if !validArtifactHash(ok) {
		t.Fatalf("valid hash %q rejected", ok)
	}
	for _, bad := range []string{
		"", "short", strings.Repeat("0a", 32) + "0", // wrong lengths
		strings.ToUpper(ok),                  // uppercase hex
		"../" + strings.Repeat("0a", 32)[3:], // path traversal
		strings.Repeat("0g", 32),             // non-hex
	} {
		if validArtifactHash(bad) {
			t.Fatalf("bad hash %q accepted", bad)
		}
	}
}

// FuzzJobWire hammers every wire decoder with arbitrary bytes: they must
// never panic, and anything they accept must satisfy the envelope
// invariants (version, required identifiers, caps).
func FuzzJobWire(f *testing.F) {
	if data, err := encodeJSON(sampleJob()); err == nil {
		f.Add(data)
	}
	res := Result{Version: ProtocolVersion, JobID: "a/b", LeaseID: "lease-1",
		Telemetry: []TelemetryFile{{Suffix: ".json", Data: []byte("{}")}}}
	if data, err := encodeJSON(res); err == nil {
		f.Add(data)
	}
	if data, err := encodeJSON(Control{Version: ProtocolVersion, JobID: "a/b", LeaseID: "lease-1"}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if j, err := DecodeJob(bytes.NewReader(data)); err == nil {
			if j.Version != ProtocolVersion || j.ID == "" || j.LeaseID == "" || j.LeaseTTLMillis <= 0 {
				t.Fatalf("DecodeJob accepted invalid envelope: %+v", j)
			}
		}
		if r, err := DecodeResult(bytes.NewReader(data)); err == nil {
			if r.Version != ProtocolVersion || r.JobID == "" || r.LeaseID == "" {
				t.Fatalf("DecodeResult accepted invalid envelope: %+v", r)
			}
			for _, tf := range r.Telemetry {
				if tf.Suffix != ".json" && tf.Suffix != ".trace.json" {
					t.Fatalf("DecodeResult accepted telemetry suffix %q", tf.Suffix)
				}
			}
		}
		if c, err := DecodeControl(bytes.NewReader(data)); err == nil {
			if c.Version != ProtocolVersion || c.JobID == "" || c.LeaseID == "" {
				t.Fatalf("DecodeControl accepted invalid envelope: %+v", c)
			}
		}
		if cfg, err := DecodeConfig(bytes.NewReader(data)); err == nil && cfg.Version != ProtocolVersion {
			t.Fatalf("DecodeConfig accepted version %d", cfg.Version)
		}
		if p, err := DecodeProgress(bytes.NewReader(data)); err == nil && p.Version != ProtocolVersion {
			t.Fatalf("DecodeProgress accepted version %d", p.Version)
		}
	})
}
