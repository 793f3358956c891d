package effects_test

import (
	"path/filepath"
	"slices"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/effects"
)

const fixturePath = "bingo/internal/effectsfix"

// fixtureWorld analyzes the fixture package with a probe analyzer and
// returns the World it built, plus the loader, for further runs in the
// same type-checked world.
func fixtureWorld(t *testing.T) (*effects.World, *analysis.Loader) {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override(fixturePath, filepath.Join(root, "internal/lint/testdata/src/effects"))
	return worldOf(t, loader), loader
}

func worldOf(t *testing.T, loader *analysis.Loader) *effects.World {
	t.Helper()
	var w *effects.World
	probe := &analysis.Analyzer{
		Name: "effectsprobe",
		Doc:  "stash the fixture's World for assertions",
		Run: func(pass *analysis.Pass) error {
			w = effects.NewWorld(pass)
			return nil
		},
	}
	if _, err := analysis.NewRunner(loader, []*analysis.Analyzer{probe}).Package(fixturePath); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSummaryShape(t *testing.T) {
	w, _ := fixtureWorld(t)

	onAccess := w.Funcs[fixturePath+".T.OnAccess"]
	if onAccess == nil {
		t.Fatalf("no summary for T.OnAccess; have %d summaries", len(w.Funcs))
	}
	if !onAccess.HotRoot {
		t.Errorf("T.OnAccess not shape-matched as a hot root")
	}
	if !hasWrite(onAccess, fixturePath+".T.n") {
		t.Errorf("T.OnAccess missing write to T.n: %+v", onAccess.Writes)
	}

	fill := w.Funcs[fixturePath+".T.Fill"]
	if fill == nil {
		t.Fatal("no summary for T.Fill")
	}
	if fill.HotRoot {
		t.Errorf("T.Fill wrongly marked hot root")
	}
	if !hasAlloc(fill, "append growth") {
		t.Errorf("T.Fill missing append-growth alloc: %+v", fill.Allocs)
	}

	setGlobal := w.Funcs[fixturePath+".SetGlobal"]
	if setGlobal == nil {
		t.Fatal("no summary for SetGlobal")
	}
	if len(setGlobal.Writes) != 1 || setGlobal.Writes[0].Target != fixturePath+".Global" {
		t.Errorf("SetGlobal writes = %+v, want exactly the Global store (the struct-local store must not count)",
			setGlobal.Writes)
	}

	escaping := w.DynTargets(&effects.Event{Kind: effects.EvDynFunc, Sig: "func()"})
	if !slices.Contains(escaping, fixturePath+".helperRef") {
		t.Errorf("helperRef's escaping reference not recorded: func() resolves to %v", escaping)
	}

	caller := w.Funcs[fixturePath+".Caller"]
	if caller == nil || !hasCall(caller, fixturePath+".SetGlobal") {
		t.Errorf("Caller missing static call edge to SetGlobal")
	}
}

// TestSummaryPositionsAreLive pins that summaries carry live positions
// against the loader's FileSet, rendered module-relative on demand, and
// that a package is summarized once per loader: a second pass over the
// same world reuses the summary, another loader builds its own.
func TestSummaryPositionsAreLive(t *testing.T) {
	w, loader := fixtureWorld(t)

	fill := w.Funcs[fixturePath+".T.Fill"]
	const file = "internal/lint/testdata/src/effects/effectsfix.go"
	if got := w.Where(fill.Decl); got != file+":25" {
		t.Errorf("T.Fill declared at %q, want %s:25", got, file)
	}
	if len(fill.Allocs) != 1 || w.Where(fill.Allocs[0].Pos) != file+":27" {
		t.Errorf("T.Fill allocs = %+v, want one site at %s:27", fill.Allocs, file)
	}

	if again := worldOf(t, loader).Funcs[fixturePath+".T.Fill"]; again != fill {
		t.Error("a second pass on the same loader summarized the package again")
	}
	_, other := fixtureWorld(t)
	if fresh := worldOf(t, other).Funcs[fixturePath+".T.Fill"]; fresh == fill {
		t.Error("a summary leaked from one loader into another")
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

func hasCall(fe *effects.FuncEffects, key string) bool {
	for _, ev := range fe.Trace {
		if ev.Kind == effects.EvCall && ev.Key == key {
			return true
		}
	}
	return false
}
