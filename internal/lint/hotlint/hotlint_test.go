package hotlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/analysistest"
	"bingo/internal/lint/hotlint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestHotlintFixture(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal/lint/testdata/src/hotlint")
	analysistest.RunConfig(t, root, dir, "bingo/internal/hotfix", hotlint.Analyzer, analysistest.Config{
		Deps: map[string]string{"bingo/internal/hotfix/dep": filepath.Join(dir, "dep")},
	})
}

// TestHotlintCatchesDroppedWaiver is the seeded-mutation check: deleting
// the function-level //hot:alloc waiver from the fixture must surface
// the allocation it was covering. If this fails, the analyzer would not
// notice a waiver silently rotting away.
func TestHotlintCatchesDroppedWaiver(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal/lint/testdata/src/hotlint")
	src, err := os.ReadFile(filepath.Join(dir, "hotfix.go"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	dropped := 0
	for _, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "//hot:alloc scratch buffer") {
			dropped++
			continue
		}
		kept = append(kept, line)
	}
	if dropped != 1 {
		t.Fatalf("mutation dropped %d lines, want exactly 1", dropped)
	}
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "hotfix.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/hotfix", tmp)
	loader.Override("bingo/internal/hotfix/dep", filepath.Join(dir, "dep"))
	runner := analysis.NewRunner(loader, []*analysis.Analyzer{hotlint.Analyzer})
	diags, err := runner.Package("bingo/internal/hotfix")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "make on the hot path from bingo/internal/hotfix.P.OnEviction") {
			return
		}
	}
	t.Errorf("dropping the //hot:alloc waiver did not surface the covered make; got %d diagnostic(s)", len(diags))
}

// TestHotlintMarkerValidation checks the annotation vocabulary is
// policed: unknown verbs and reasonless waivers are findings.
func TestHotlintMarkerValidation(t *testing.T) {
	root := moduleRoot(t)
	tmp := t.TempDir()
	src := `package badmarks

//hot:bogus something
func A() {}

//hot:alloc
func B() {}
`
	if err := os.WriteFile(filepath.Join(tmp, "badmarks.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/badmarks", tmp)
	runner := analysis.NewRunner(loader, []*analysis.Analyzer{hotlint.Analyzer})
	diags, err := runner.Package("bingo/internal/badmarks")
	if err != nil {
		t.Fatal(err)
	}
	var unknown, reasonless bool
	for _, d := range diags {
		if strings.Contains(d.Message, `unknown //hot: verb "bogus"`) {
			unknown = true
		}
		if strings.Contains(d.Message, "//hot:alloc needs a reason") {
			reasonless = true
		}
	}
	if !unknown || !reasonless {
		t.Errorf("marker validation incomplete: unknown=%v reasonless=%v in %d diagnostic(s)", unknown, reasonless, len(diags))
	}
}
