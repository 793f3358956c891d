package effects

import (
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"bingo/internal/lint/analysis"
)

// World assembles the effect summaries of the package under analysis and
// its whole module-local import closure into one queryable call graph.
// Each package is summarized at most once per loader (see summaryOf), so
// construction is map merges over summaries already built, and each
// consuming analyzer builds its own.
type World struct {
	pass    *analysis.Pass
	Funcs   map[string]*FuncEffects
	escapes map[string][]string       // canonical signature → escaping function keys
	typePkg map[string]*types.Package // full import closure, by path
	module  []*types.Package          // module-local closure, current package included

	chaMemo map[string][]string
}

// NewWorld gathers the summaries of pass's unit and of every module-local
// package in its import closure into a World.
func NewWorld(pass *analysis.Pass) *World {
	w := &World{
		pass:    pass,
		Funcs:   map[string]*FuncEffects{},
		escapes: map[string][]string{},
		typePkg: map[string]*types.Package{},
		chaMemo: map[string][]string{},
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		w.typePkg[p.Path()] = p
		if moduleLocal(p.Path()) {
			w.module = append(w.module, p)
			if pe := summaryOf(pass, p); pe != nil {
				for key, fe := range pe.Funcs {
					w.Funcs[key] = fe
				}
				for _, ref := range pe.Escapes {
					w.escapes[ref.Sig] = append(w.escapes[ref.Sig], ref.Key)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pass.Pkg)
	sort.Slice(w.module, func(i, j int) bool { return w.module[i].Path() < w.module[j].Path() })
	for sig := range w.escapes {
		keys := w.escapes[sig]
		sort.Strings(keys)
		w.escapes[sig] = dedupeSorted(keys)
	}
	return w
}

// summaryKey keys a package's summary in the loader's memo. The key is
// the type-checked package itself, not its path: an in-package test unit
// shares its path with the shipping package but is a different unit.
type summaryKey struct{ pkg *types.Package }

// summaryOf returns the effect summary of p, built at most once per
// loader. The unit under analysis supplies its own summary, so a test
// unit sees its _test.go functions; every other package is summarized
// from the loader's cached copy, which is the very package p was
// imported as.
func summaryOf(pass *analysis.Pass, p *types.Package) *PkgEffects {
	return pass.Loader.Memo(summaryKey{p}, func() any {
		if p == pass.Pkg {
			return summarizePackage(pass)
		}
		pkg, err := pass.Loader.Load(p.Path())
		if err != nil || pkg.Types != p {
			return (*PkgEffects)(nil)
		}
		return summarizePackage(&analysis.Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		})
	}).(*PkgEffects)
}

// Where renders pos module-relative as "file:line", the form a message
// uses to name a site in another package.
func (w *World) Where(pos token.Pos) string {
	p := w.pass.Fset.Position(pos)
	return analysis.ModuleRel(w.pass.Loader.ModuleRoot, p.Filename) + ":" + strconv.Itoa(p.Line)
}

func dedupeSorted(keys []string) []string {
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// SortedKeys returns the keys of every summary in the world, sorted, for
// deterministic iteration.
func (w *World) SortedKeys() []string {
	keys := make([]string, 0, len(w.Funcs))
	for k := range w.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DynTargets resolves a dynamic event to the summary keys it may invoke.
// Interface calls resolve by class-hierarchy analysis: every
// package-scope named type in the module-local closure that implements
// the interface contributes its method. Function-value calls resolve
// flow-insensitively against the escaping references of matching
// canonical signature.
func (w *World) DynTargets(ev *Event) []string {
	switch ev.Kind {
	case EvDynFunc:
		return w.escapes[ev.Sig]
	case EvSpawn:
		if ev.Key == "" && ev.Sig != "" {
			return w.escapes[ev.Sig]
		}
		return nil
	case EvDynCall:
		memo := ev.Key + "#" + ev.Method
		if t, ok := w.chaMemo[memo]; ok {
			return t
		}
		var targets []string
		dot := strings.LastIndexByte(ev.Key, '.')
		if dot > 0 {
			if p := w.typePkg[ev.Key[:dot]]; p != nil {
				if tn, ok := p.Scope().Lookup(ev.Key[dot+1:]).(*types.TypeName); ok {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						targets = w.implementors(iface, ev.Method)
					}
				}
			}
		}
		w.chaMemo[memo] = targets
		return targets
	}
	return nil
}

func (w *World) implementors(iface *types.Interface, method string) []string {
	var out []string
	for _, p := range w.module {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			key := p.Path() + "." + name + "." + method
			if w.Funcs[key] != nil {
				out = append(out, key)
			}
		}
	}
	return out
}

// Edges invokes fn for every outgoing call edge of fe — static calls,
// spawns, and every resolved dynamic target.
func (w *World) Edges(fe *FuncEffects, fn func(ev *Event, target string)) {
	for i := range fe.Trace {
		ev := &fe.Trace[i]
		switch ev.Kind {
		case EvCall:
			fn(ev, ev.Key)
		case EvSpawn:
			if ev.Key != "" {
				fn(ev, ev.Key)
			} else {
				for _, t := range w.DynTargets(ev) {
					fn(ev, t)
				}
			}
		case EvDynCall, EvDynFunc:
			for _, t := range w.DynTargets(ev) {
				fn(ev, t)
			}
		}
	}
}

// Walk traverses the call graph from root. descend sees every reachable
// summary (root first) and returns whether to follow its edges.
func (w *World) Walk(root string, descend func(fe *FuncEffects) bool) {
	seen := map[string]bool{}
	var visit func(key string)
	visit = func(key string) {
		if seen[key] {
			return
		}
		seen[key] = true
		fe := w.Funcs[key]
		if fe == nil || !descend(fe) {
			return
		}
		w.Edges(fe, func(_ *Event, target string) { visit(target) })
	}
	visit(root)
}
