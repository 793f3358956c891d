package effects_test

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/effects"
)

const fixturePath = "bingo/internal/effectsfix"

// summarizeFixture runs the effects producer over the fixture package
// and returns its live PkgEffects fact.
func summarizeFixture(t *testing.T) *effects.PkgEffects {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var pe effects.PkgEffects
	got := false
	probe := &analysis.Analyzer{
		Name:     "effectsprobe",
		Doc:      "stash the fixture's PkgEffects fact for assertions",
		Requires: []*analysis.Analyzer{effects.Facts},
		Run: func(pass *analysis.Pass) error {
			got = pass.ImportPackageFact(pass.Pkg, &pe)
			return nil
		},
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override(fixturePath, filepath.Join(root, "internal/lint/testdata/src/effects"))
	runner, err := analysis.NewRunner(loader, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Package(fixturePath); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("no PkgEffects fact exported for the fixture package")
	}
	return &pe
}

func TestSummaryShape(t *testing.T) {
	pe := summarizeFixture(t)

	onAccess := pe.Funcs[fixturePath+".T.OnAccess"]
	if onAccess == nil {
		t.Fatalf("no summary for T.OnAccess; have %d summaries", len(pe.Funcs))
	}
	if !onAccess.HotRoot {
		t.Errorf("T.OnAccess not shape-matched as a hot root")
	}
	if !hasWrite(onAccess, fixturePath+".T.n") {
		t.Errorf("T.OnAccess missing write to T.n: %+v", onAccess.Writes)
	}

	fill := pe.Funcs[fixturePath+".T.Fill"]
	if fill == nil {
		t.Fatal("no summary for T.Fill")
	}
	if fill.HotRoot {
		t.Errorf("T.Fill wrongly marked hot root")
	}
	if !hasAlloc(fill, "append growth") {
		t.Errorf("T.Fill missing append-growth alloc: %+v", fill.Allocs)
	}

	setGlobal := pe.Funcs[fixturePath+".SetGlobal"]
	if setGlobal == nil {
		t.Fatal("no summary for SetGlobal")
	}
	if len(setGlobal.Writes) != 1 || setGlobal.Writes[0].Target != fixturePath+".Global" {
		t.Errorf("SetGlobal writes = %+v, want exactly the Global store (the struct-local store must not count)",
			setGlobal.Writes)
	}

	if !hasEscape(pe, fixturePath+".helperRef") {
		t.Errorf("helperRef's escaping reference not recorded: %+v", pe.Escapes)
	}

	caller := pe.Funcs[fixturePath+".Caller"]
	if caller == nil || !hasCall(caller, fixturePath+".SetGlobal") {
		t.Errorf("Caller missing static call edge to SetGlobal")
	}
}

// TestGobRoundTrip pins the fact serialization contract: exported
// fields survive, live positions are deliberately dropped (they are
// only meaningful against the producing FileSet).
func TestGobRoundTrip(t *testing.T) {
	pe := summarizeFixture(t)

	fill := pe.Funcs[fixturePath+".T.Fill"]
	if !fill.LocalDecl().IsValid() {
		t.Fatal("live summary lost its local declaration position")
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pe); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back effects.PkgEffects
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}

	fill2 := back.Funcs[fixturePath+".T.Fill"]
	if fill2 == nil {
		t.Fatal("T.Fill summary lost in round trip")
	}
	if fill2.LocalDecl().IsValid() {
		t.Errorf("local position survived serialization; remote consumers must see NoPos")
	}
	if fill2.Decl == "" || fill2.Decl != fill.Decl {
		t.Errorf("module-relative position lost: %q vs %q", fill2.Decl, fill.Decl)
	}
	if len(fill2.Allocs) != len(fill.Allocs) || len(fill2.Trace) != len(fill.Trace) {
		t.Errorf("summary content changed in round trip: %d/%d allocs, %d/%d events",
			len(fill2.Allocs), len(fill.Allocs), len(fill2.Trace), len(fill.Trace))
	}
	if len(fill2.Allocs) > 0 && fill2.Allocs[0].LocalPos().IsValid() {
		t.Errorf("alloc site's local position survived serialization")
	}
}

func hasWrite(fe *effects.FuncEffects, target string) bool {
	for _, w := range fe.Writes {
		if w.Target == target {
			return true
		}
	}
	return false
}

func hasAlloc(fe *effects.FuncEffects, what string) bool {
	for _, a := range fe.Allocs {
		if a.What == what {
			return true
		}
	}
	return false
}

func hasEscape(pe *effects.PkgEffects, key string) bool {
	for _, ref := range pe.Escapes {
		if ref.Key == key {
			return true
		}
	}
	return false
}

func hasCall(fe *effects.FuncEffects, key string) bool {
	for _, ev := range fe.Trace {
		if ev.Kind == effects.EvCall && ev.Key == key {
			return true
		}
	}
	return false
}
