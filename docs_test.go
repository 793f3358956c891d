package bingo_test

import (
	"os"
	"strings"
	"testing"
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
