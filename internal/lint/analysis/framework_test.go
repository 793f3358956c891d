package analysis

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
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

// tfact is a registered fact type for the serialization tests.
type tfact struct {
	N     int
	Label string
}

func (*tfact) AFact() {}

func TestFactRoundTrip(t *testing.T) {
	registerFactTypes([]*Analyzer{{Name: "facttest", FactTypes: []Fact{&tfact{}}}})
	fs := factSet{&tfact{N: 9, Label: "pkg"}, &tfact{N: 1, Label: "second"}}

	d1, err := encodeFacts(fs)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := encodeFacts(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("encodeFacts is not deterministic across calls")
	}

	got, err := decodeFacts(d1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fs) {
		t.Errorf("package facts did not survive the round trip:\n got %v\nwant %v", got, fs)
	}
}

func TestFactDBCommitLoad(t *testing.T) {
	registerFactTypes([]*Analyzer{{Name: "facttest", FactTypes: []Fact{&tfact{}}}})
	db := newFactDB()
	fs := factSet{&tfact{N: 8, Label: "p"}}
	if err := db.commit("bingo/internal/mem", "facttest", fs); err != nil {
		t.Fatal(err)
	}
	got, err := db.load("bingo/internal/mem", "facttest")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fs) {
		t.Errorf("factDB round trip mismatch: got %+v, want %+v", got, fs)
	}
	empty, err := db.load("bingo/internal/mem", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("missing entry should load empty, got %+v", empty)
	}
}

func TestScheduleOrdersRequirementsFirst(t *testing.T) {
	base := &Analyzer{Name: "base"}
	mid := &Analyzer{Name: "mid", Requires: []*Analyzer{base}}
	top := &Analyzer{Name: "top", Requires: []*Analyzer{mid, base}}
	order, err := Schedule([]*Analyzer{top})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, a := range order {
		pos[a.Name] = i
	}
	if len(order) != 3 {
		t.Fatalf("Schedule did not expand the Requires closure: %d analyzers", len(order))
	}
	if !(pos["base"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Errorf("bad topological order: %v", pos)
	}
}

func TestScheduleCycleIsAnError(t *testing.T) {
	a := &Analyzer{Name: "a"}
	b := &Analyzer{Name: "b", Requires: []*Analyzer{a}}
	a.Requires = []*Analyzer{b}
	if _, err := Schedule([]*Analyzer{a}); err == nil {
		t.Fatal("Schedule on a requirement cycle: want error, got nil")
	} else if !strings.Contains(err.Error(), "analyzer requirement cycle") {
		t.Errorf("cycle error should name the cycle, got: %v", err)
	}

	// NewRunner must refuse the same configuration up front.
	l := newTestLoader(t)
	if _, err := NewRunner(l, []*Analyzer{a}); err == nil {
		t.Error("NewRunner on a requirement cycle: want error, got nil")
	}
}
