package sharelint_test

import (
	"path/filepath"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/analysistest"
	"bingo/internal/lint/sharelint"
)

func fixture(t *testing.T) (root, dir string) {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root, filepath.Join(root, "internal", "lint", "testdata", "src", "sharelint")
}

// TestSharelint runs the fixture with its dep subpackage, so the
// mutex-bearing dep.Locked exempts the fixture's GuardedDep through the
// structural walk across the package boundary.
func TestSharelint(t *testing.T) {
	root, dir := fixture(t)
	diags := analysistest.RunConfig(t, root, dir, "bingo/internal/cachefixture", sharelint.Analyzer, analysistest.Config{
		Deps: map[string]string{"bingo/internal/cachefixture/dep": filepath.Join(dir, "dep")},
	})
	if len(diags) == 0 {
		t.Fatal("fixture seeded violations but sharelint reported nothing")
	}
}

// TestScopeIsFrontendOnly loads the same fixture under an import path
// outside the simulator packages: rule 1 must go quiet.
func TestScopeIsFrontendOnly(t *testing.T) {
	root, dir := fixture(t)
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/elsewherefixture", dir)
	loader.Override("bingo/internal/cachefixture/dep", filepath.Join(dir, "dep"))
	runner := analysis.NewRunner(loader, []*analysis.Analyzer{sharelint.Analyzer})
	diags, err := runner.Package("bingo/internal/elsewherefixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("out-of-scope package got a diagnostic: %s", d.Message)
	}
}
