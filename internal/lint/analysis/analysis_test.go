package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFindModuleRootAndModulePath(t *testing.T) {
	l := newTestLoader(t)
	if l.ModulePath != "bingo" {
		t.Fatalf("module path = %q, want bingo", l.ModulePath)
	}
	if _, err := FindModuleRoot(filepath.Join("/", "nonexistent-simlint")); err == nil {
		t.Error("FindModuleRoot outside any module: want error")
	}
}

func TestModuleRel(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"/src/bingo/internal/cpu/core.go", "internal/cpu/core.go"},
		{"/src/bingo/go.mod", "go.mod"},
		{"/src/bingo2/x.go", "/src/bingo2/x.go"}, // a sibling, not inside the root
		{"/src/bingo/", "/src/bingo/"},
		{"/elsewhere/x.go", "/elsewhere/x.go"},
	} {
		if got := ModuleRel("/src/bingo", tc.file); got != tc.want {
			t.Errorf("ModuleRel(%q) = %q, want %q", tc.file, got, tc.want)
		}
	}
}

func TestExpandPatterns(t *testing.T) {
	l := newTestLoader(t)

	all, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"bingo":                  true, // the root package itself
		"bingo/internal/mem":     true,
		"bingo/internal/harness": true,
		"bingo/cmd/simlint":      true,
	}
	got := map[string]bool{}
	for _, p := range all {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand descended into testdata: %s", p)
		}
	}
	for p := range want {
		if !got[p] {
			t.Errorf("Expand(./...) missing %s", p)
		}
	}
	if !strings.HasPrefix(all[0], "bingo") {
		t.Errorf("unexpected first element %q", all[0])
	}

	sub, err := l.Expand([]string{"./internal/prefetchers/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sub {
		if !strings.HasPrefix(p, "bingo/internal/prefetchers/") {
			t.Errorf("subtree pattern leaked %s", p)
		}
	}
	if len(sub) < 5 {
		t.Errorf("expected the prefetcher family, got %v", sub)
	}

	one, err := l.Expand([]string{"./internal/mem"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "bingo/internal/mem" {
		t.Errorf("single-dir pattern: got %v", one)
	}
}

func TestLoadTypeChecksAndCaches(t *testing.T) {
	l := newTestLoader(t)
	p1, err := l.Load("bingo/internal/mem")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Types == nil || p1.Types.Name() != "mem" {
		t.Fatalf("bad types package: %v", p1.Types)
	}
	p2, err := l.Load("bingo/internal/mem")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Load did not cache the package")
	}
	if _, err := l.Load("othermodule/pkg"); err == nil {
		t.Error("loading a non-module path: want error")
	}
}
