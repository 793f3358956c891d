package purelint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/analysistest"
	"bingo/internal/lint/purelint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestPurelintFixture(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal/lint/testdata/src/purelint")
	analysistest.RunConfig(t, root, dir, "bingo/internal/telemetryfix", purelint.Analyzer, analysistest.Config{
		Deps: map[string]string{"bingo/internal/simfix": filepath.Join(dir, "dep")},
	})
}

// TestPurelintCatchesDroppedWaiver deletes Restore's body-level
// //obs:write waiver: the closure's write to simulator state must then
// surface as a finding.
func TestPurelintCatchesDroppedWaiver(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal/lint/testdata/src/purelint")
	src, err := os.ReadFile(filepath.Join(dir, "obsfix.go"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	dropped := 0
	for _, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "//obs:write checkpoint restore") {
			dropped++
			continue
		}
		kept = append(kept, line)
	}
	if dropped != 1 {
		t.Fatalf("mutation dropped %d lines, want exactly 1", dropped)
	}
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "obsfix.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/telemetryfix", tmp)
	loader.Override("bingo/internal/simfix", filepath.Join(dir, "dep"))
	runner := analysis.NewRunner(loader, []*analysis.Analyzer{purelint.Analyzer})
	diags, err := runner.Package("bingo/internal/telemetryfix")
	if err != nil {
		t.Fatal(err)
	}
	// The write lives in Restore's closure; with the waiver gone it must
	// be reported (locally, at the closure's assignment).
	for _, d := range diags {
		if strings.Contains(d.Message, "writes simulator state bingo/internal/simfix.Sim.Hits") {
			return
		}
	}
	t.Errorf("dropping the //obs:write waiver did not surface the covered write; got %d diagnostic(s)", len(diags))
}

// TestPurelintMarkerValidation polices the //obs: vocabulary.
func TestPurelintMarkerValidation(t *testing.T) {
	root := moduleRoot(t)
	tmp := t.TempDir()
	src := `package badobs

//obs:read something
func A() {}

//obs:write
func B() {}
`
	if err := os.WriteFile(filepath.Join(tmp, "badobs.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/badobs", tmp)
	runner := analysis.NewRunner(loader, []*analysis.Analyzer{purelint.Analyzer})
	diags, err := runner.Package("bingo/internal/badobs")
	if err != nil {
		t.Fatal(err)
	}
	var unknown, reasonless bool
	for _, d := range diags {
		if strings.Contains(d.Message, `unknown //obs: verb "read"`) {
			unknown = true
		}
		if strings.Contains(d.Message, "//obs:write needs a reason") {
			reasonless = true
		}
	}
	if !unknown || !reasonless {
		t.Errorf("marker validation incomplete: unknown=%v reasonless=%v in %d diagnostic(s)", unknown, reasonless, len(diags))
	}
}
