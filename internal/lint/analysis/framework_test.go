package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseSrc(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFileBuildable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		tags []string
		want bool
	}{
		{"unconstrained default", "package p\n", nil, true},
		{"unconstrained with tags", "package p\n", []string{"san"}, true},
		{"san excluded by default", "//go:build san\n\npackage p\n", nil, false},
		{"san included under tag", "//go:build san\n\npackage p\n", []string{"san"}, true},
		{"negated san by default", "//go:build !san\n\npackage p\n", nil, true},
		{"negated san under tag", "//go:build !san\n\npackage p\n", []string{"san"}, false},
		{"conjunction needs both", "//go:build san && other\n\npackage p\n", []string{"san"}, false},
		{"conjunction satisfied", "//go:build san && other\n\npackage p\n", []string{"san", "other"}, true},
	}
	for _, tc := range cases {
		if got := FileBuildable(parseSrc(t, tc.src), tc.tags); got != tc.want {
			t.Errorf("%s: FileBuildable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunnerAnalyzesOnlyRequestedUnits pins that analyzing a package
// runs the suite on that package alone, not on its module-local imports:
// an analyzer reads another package from the loader instead.
func TestRunnerAnalyzesOnlyRequestedUnits(t *testing.T) {
	var seen []string
	a := &Analyzer{Name: "count", Run: func(p *Pass) error {
		seen = append(seen, p.Pkg.Path())
		return nil
	}}
	l := newTestLoader(t)
	if _, err := NewRunner(l, []*Analyzer{a}).Package("bingo/internal/cache"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "bingo/internal/cache" {
		t.Errorf("analyzed %v, want [bingo/internal/cache]", seen)
	}
}
