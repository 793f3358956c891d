package lint_test

import (
	"bytes"
	"encoding/json"
	"path"
	"reflect"
	"strings"
	"testing"

	"bingo/internal/lint"
	"bingo/internal/lint/analysis"
)

// TestFindingsIndependentOfRunScope pins that a package's findings do not
// depend on what else the run analyzed. hotlint and purelint read other
// packages' effect summaries from a memo on the loader; a summary built
// for one unit must not change another unit's findings. So linting a few
// packages alone must report, for those packages, exactly what a ./...
// run reports — suppressed findings included. internal/harness rides
// along because the repository is clean: its suppressed findings are the
// only ones there are, and an empty comparison would prove nothing.
func TestFindingsIndependentOfRunScope(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module twice; skipped in -short")
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	subset := []string{"./internal/telemetry/...", "./internal/cache", "./internal/harness"}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(subset)
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, p := range paths {
		dirs[strings.TrimPrefix(p, loader.ModulePath+"/")] = true
	}

	check := func(patterns []string) []lint.Finding {
		t.Helper()
		var buf bytes.Buffer
		if _, err := lint.Check(&buf, root, patterns, lint.Options{Tests: true, San: true, JSON: true}); err != nil {
			t.Fatal(err)
		}
		var doc struct{ Findings []lint.Finding }
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var kept []lint.Finding
		for _, f := range doc.Findings {
			if dirs[path.Dir(f.File)] {
				kept = append(kept, f)
			}
		}
		return kept
	}
	alone, all := check(subset), check([]string{"./..."})
	if len(alone) == 0 {
		t.Fatalf("no findings in %v; the comparison would prove nothing", subset)
	}
	if !reflect.DeepEqual(alone, all) {
		t.Errorf("findings for %v differ between a run of those packages alone and a ./... run:\nalone: %+v\n  all: %+v", subset, alone, all)
	}
}
