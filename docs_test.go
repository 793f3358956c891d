package bingo_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"bingo/internal/harness"
)

// TestExperimentsRecordHasNoPlaceholders keeps EXPERIMENTS.md honest:
// every measured cell and section must be filled in from
// experiments_full.txt, not left as a template marker.
func TestExperimentsRecordHasNoPlaceholders(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, marker := range []string{"MEASURED_", "PLACEHOLDER_"} {
			if strings.Contains(line, marker) {
				t.Errorf("EXPERIMENTS.md:%d still holds a %s placeholder: %s", i+1, marker, line)
			}
		}
	}
}

// TestDocsNameEveryExperiment keeps the hand-written experiment lists in
// README.md and cmd/experiments' doc comment in step with the suite's
// experiment table: each must name exactly harness.ExperimentOrder().
func TestDocsNameEveryExperiment(t *testing.T) {
	want := harness.ExperimentOrder()
	for _, doc := range []struct{ file, marker, end string }{
		{"README.md", "Experiment names: `", "`"},
		{"cmd/experiments/main.go", "// Artefact names (-h prints them too):", "."},
	} {
		data, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		_, list, ok := strings.Cut(string(data), doc.marker)
		if !ok {
			t.Fatalf("%s: no %q list", doc.file, doc.marker)
		}
		list, _, _ = strings.Cut(list, doc.end)
		got := strings.Fields(strings.ReplaceAll(list, "//", " "))
		if !slices.Equal(got, want) {
			t.Errorf("%s lists experiments\n  %v\nwant\n  %v", doc.file, got, want)
		}
	}
}
