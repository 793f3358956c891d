package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bingo/internal/lint"
	"bingo/internal/lint/analysis"
	"bingo/internal/lint/errlint"
)

// TestUnusedSuppressionsNamingRetiredAnalyzer pins the stale-directive
// report for a //lint:ignore naming an analyzer the suite no longer has:
// it can never suppress anything again, so -unused-suppressions reports
// it even on a partial (-only) run. A directive naming a suite analyzer
// left out of the run stays unjudged, and is reported once that analyzer
// runs and finds nothing to suppress.
func TestUnusedSuppressionsNamingRetiredAnalyzer(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module bingo\n\ngo 1.22\n")
	writeFile(t, filepath.Join(root, "internal", "x", "x.go"), `package x

//lint:ignore locklint retired with the lock interpreter
var A = 1

//lint:ignore detlint nothing nondeterministic here
var B = 2
`)

	check := func(analyzers []*analysis.Analyzer) (int, string) {
		t.Helper()
		var buf bytes.Buffer
		n, err := lint.Check(&buf, root, []string{"./..."}, lint.Options{
			Analyzers:          analyzers,
			UnusedSuppressions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, buf.String()
	}

	n, out := check([]*analysis.Analyzer{errlint.Analyzer})
	if n != 1 || !strings.Contains(out, "//lint:ignore locklint names no analyzer in the suite") {
		t.Errorf("-only errlint: got %d finding(s), want the locklint directive alone:\n%s", n, out)
	}

	n, out = check(nil)
	if n != 2 || !strings.Contains(out, "locklint names no analyzer") ||
		!strings.Contains(out, "//lint:ignore detlint no longer suppresses anything") {
		t.Errorf("full suite: got %d finding(s), want both directives:\n%s", n, out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
