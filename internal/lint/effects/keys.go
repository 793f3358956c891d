package effects

import (
	"go/ast"
	"go/types"
	"strings"

	"bingo/internal/lint/analysis"
)

// modulePrefix scopes the graph to the repository's own packages, the
// same way the rest of the suite hardcodes its bingo/... scope; fixture
// packages load under synthetic bingo/internal/... paths and land inside
// it.
const modulePrefix = "bingo"

func moduleLocal(path string) bool {
	return path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/")
}

// FuncKey returns the canonical key of a function or method:
// "pkgpath.Name" or "pkgpath.Type.Name" (pointer receivers and generic
// instantiations collapse onto the origin type). ok is false for objects
// no stable key exists for (universe members like error.Error).
func FuncKey(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return "", false // method of an anonymous type
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return "", false
		}
		return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name(), true
	}
	return fn.Pkg().Path() + "." + fn.Name(), true
}

// namedOf strips pointers and generic instantiation from t and returns
// the origin named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin()
}

// pkgScopedNamed reports whether named's type name is declared at its
// package's scope (keys only cover those).
func pkgScopedNamed(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj
}

// fullQualifier prints package names as full import paths, making
// signature strings canonical module-wide.
func fullQualifier(p *types.Package) string { return p.Path() }

// sigString renders sig without its receiver, so a method value and a
// plain function of the same shape compare equal — the currency of
// flow-insensitive function-value resolution.
func sigString(sig *types.Signature) string {
	if sig.Recv() != nil {
		sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	}
	return types.TypeString(sig, fullQualifier)
}

func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Pkg().Scope().Lookup(v.Name()) == v
}

// writeTargetOf classifies the state a store to lhs touches: the owning
// package and a type-based target key, plus whether the store is a map
// write (which may grow the table — an allocation). Stores the analysis
// can prove local — a value chain rooted at a local variable, with no
// pointer, slice, map, or interface hop — return an empty key.
func writeTargetOf(pass *analysis.Pass, lhs ast.Expr) (pkg, target string, mapWrite bool) {
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		if v, ok := pass.ObjectOf(l).(*types.Var); ok && pkgLevelVar(v) {
			return v.Pkg().Path(), v.Pkg().Path() + "." + v.Name(), false
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if localValueChain(pass, l.X) {
				return "", "", false
			}
			if named := namedOf(sel.Recv()); named != nil && pkgScopedNamed(named) {
				obj := named.Obj()
				return obj.Pkg().Path(), obj.Pkg().Path() + "." + obj.Name() + "." + l.Sel.Name, false
			}
			return "", "", false
		}
		if v, ok := pass.ObjectOf(l.Sel).(*types.Var); ok && pkgLevelVar(v) {
			return v.Pkg().Path(), v.Pkg().Path() + "." + v.Name(), false
		}
	case *ast.IndexExpr:
		_, isMap := typeUnder(pass, l.X).(*types.Map)
		pkg, target, inner := writeTargetOf(pass, l.X)
		if pkg == "" {
			// The container itself is unnamed or local; an element store
			// through it still mutates shared state when the container is a
			// reference type, but there is nothing stable to attribute it
			// to. The map-write allocation is reported regardless.
			return "", "", isMap || inner
		}
		return pkg, target, isMap || inner
	case *ast.StarExpr:
		// *p = v overwrites the whole pointee.
		if named := namedOf(typeUnder(pass, l)); named != nil && pkgScopedNamed(named) {
			obj := named.Obj()
			return obj.Pkg().Path(), obj.Pkg().Path() + "." + obj.Name(), false
		}
	}
	return "", "", false
}

// typeUnder returns the type of e with named layers intact (callers
// switch on .Underlying() or namedOf as needed), or nil.
func typeUnder(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypeOf(e)
	if t == nil {
		return nil
	}
	return t
}

// localValueChain reports whether base reaches its storage purely
// through value field selections rooted at a local variable — the case
// where a store cannot outlive the function.
func localValueChain(pass *analysis.Pass, base ast.Expr) bool {
	for {
		base = ast.Unparen(base)
		t := pass.TypeOf(base)
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Slice, *types.Interface, *types.Chan:
			return false
		}
		switch b := base.(type) {
		case *ast.SelectorExpr:
			base = b.X
		case *ast.IndexExpr:
			tx := pass.TypeOf(b.X)
			if tx == nil {
				return false
			}
			if _, ok := tx.Underlying().(*types.Array); !ok {
				return false
			}
			base = b.X
		case *ast.Ident:
			v, ok := pass.ObjectOf(b).(*types.Var)
			return ok && !pkgLevelVar(v) && !v.IsField()
		default:
			return false
		}
	}
}
