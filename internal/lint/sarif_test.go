package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteSARIFShape pins the fields code scanning actually keys on:
// schema/version, rule registration with stable indices, result→rule
// index coherence, %SRCROOT%-relative paths, and suppression carriage.
func TestWriteSARIFShape(t *testing.T) {
	findings := []Finding{
		{File: "internal/cache/cache.go", Line: 42, Col: 7, Analyzer: "detlint", Message: "iteration over a map feeds simulated state"},
		{File: "internal/telemetry/probe.go", Line: 9, Col: 2, Analyzer: "sharelint", Message: "package-level mutable state", Suppressed: true, SuppressedBy: "written once at init"},
	}
	docs := map[string]string{
		"detlint":   "detlint keeps simulation deterministic.\n\nLong detail.",
		"sharelint": "sharelint forbids state shared between simulations.",
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, findings, map[string]string{
		"detlint":   firstLine(docs["detlint"]),
		"sharelint": firstLine(docs["sharelint"]),
	}); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("wrong SARIF version: %s / %s", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != 2 {
		t.Fatalf("want 2 rules, got %d", len(run.Tool.Driver.Rules))
	}
	if run.Tool.Driver.Rules[0].ShortDescription.Text != "detlint keeps simulation deterministic." {
		t.Errorf("rule doc not truncated to first line: %q", run.Tool.Driver.Rules[0].ShortDescription.Text)
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	for _, res := range run.Results {
		if run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("result rule index %d does not point at rule %q", res.RuleIndex, res.RuleID)
		}
		if res.Level != "warning" {
			t.Errorf("level = %q", res.Level)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q", loc.ArtifactLocation.URIBaseID)
		}
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("absolute path leaked into SARIF: %q", loc.ArtifactLocation.URI)
		}
	}
	first := run.Results[0]
	if first.Locations[0].PhysicalLocation.Region.StartLine != 42 || first.Locations[0].PhysicalLocation.Region.StartColumn != 7 {
		t.Errorf("region = %+v", first.Locations[0].PhysicalLocation.Region)
	}
	if len(first.Suppressions) != 0 {
		t.Errorf("unsuppressed finding carries suppressions")
	}
	sup := run.Results[1]
	if len(sup.Suppressions) != 1 || sup.Suppressions[0].Kind != "inSource" || sup.Suppressions[0].Justification != "written once at init" {
		t.Errorf("suppression record = %+v", sup.Suppressions)
	}
}
