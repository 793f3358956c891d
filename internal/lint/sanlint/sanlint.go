// Package sanlint proves the two static halves of the runtime
// sanitizer's contract (internal/san, build tag `san`):
//
//  1. Zero cost untagged. The sanitizer's checking API — san.Enabled,
//     san.Failf, san.DeepInterval, and any checking entry point added
//     later — may appear only where an untagged build provably compiles
//     it away: in a file whose //go:build constraint requires the san
//     tag, or inside an `if san.Compiled { ... }` / `if san.Enabled()
//     { ... }` block (san.Compiled is the untyped constant false without
//     the tag, and san.Enabled's body is `Compiled && ...`, so both
//     conditions constant-fold and the guarded block is dead-code
//     eliminated). The configuration API (SetEnabled, Apply,
//     DefaultConfig), the Compiled constant, the package's types, and
//     the invariant ID constants stay usable anywhere — referencing them
//     costs nothing. Test files are exempt: they never ship.
//
//     Because the gated files only enter the type-checked world under
//     -tags=san, the driver runs this analyzer in both build
//     configurations; the untagged pass proves rule 1, the tagged pass
//     sees the checking code itself.
//
//  2. The catalog is the code. Every invariant ID constant declared in
//     internal/san must appear in DESIGN.md §6b's catalog table, every
//     ID the catalog lists must exist in the code, and every invariant
//     passed to san.Failf must be a constant whose value the catalog
//     knows — an invariant that fires in a violation report but has no
//     documented model justification is half an invariant.
package sanlint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"bingo/internal/lint/analysis"
)

// sanPkg is the sanitizer package this analyzer guards.
const sanPkg = "bingo/internal/san"

// Analyzer enforces the sanitizer's zero-cost gating and catalog rules.
var Analyzer = &analysis.Analyzer{
	Name: "sanlint",
	Doc: "require san checking calls to be build-tag or san.Compiled guarded (zero cost untagged) " +
		"and every invariant ID to match DESIGN.md §6b's catalog",
	Run: run,
}

// configAPI is the san surface allowed in untagged files: switches and
// constructors that configure the sanitizer rather than run checks.
var configAPI = map[string]bool{
	"SetEnabled":    true,
	"Apply":         true,
	"DefaultConfig": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == sanPkg {
		return checkCatalogDecls(pass)
	}
	sanName := importedSan(pass)
	if sanName == nil {
		return nil
	}
	catalog, err := loadCatalog(pass.Loader.ModuleRoot)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		shipsUntagged := analysis.FileBuildable(f, nil) && !pass.InTestFile(f.Package)
		guards := collectGuards(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n, shipsUntagged, guards, catalog)
			case *ast.CallExpr:
				checkFailfCall(pass, n, catalog)
			}
			return true
		})
	}
	return nil
}

// importedSan returns the types.Package of internal/san if the package
// under analysis imports it, else nil.
func importedSan(pass *analysis.Pass) *types.Package {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == sanPkg {
			return imp
		}
	}
	return nil
}

// posRange is a half-open source span [from, to).
type posRange struct{ from, to token.Pos }

func (r posRange) contains(pos token.Pos) bool { return r.from <= pos && pos < r.to }

// collectGuards returns the spans in which san checking references are
// provably free in an untagged build: the bodies of if statements whose
// condition references san.Compiled or calls san.Enabled, plus those
// conditions themselves (the guard must be allowed to name its own
// switch).
func collectGuards(pass *analysis.Pass, f *ast.File) []posRange {
	var guards []posRange
	ast.Inspect(f, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || !condGuardsSan(pass, ifStmt.Cond) {
			return true
		}
		guards = append(guards,
			posRange{ifStmt.Cond.Pos(), ifStmt.Cond.End()},
			posRange{ifStmt.Body.Pos(), ifStmt.Body.End()})
		return true
	})
	return guards
}

// condGuardsSan reports whether cond mentions san.Compiled or a
// san.Enabled call, either bare or as a conjunct.
func condGuardsSan(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != sanPkg {
			return true
		}
		switch obj.Name() {
		case "Compiled", "Enabled":
			found = true
		}
		return true
	})
	return found
}

func inGuard(guards []posRange, pos token.Pos) bool {
	for _, g := range guards {
		if g.contains(pos) {
			return true
		}
	}
	return false
}

// checkSelector classifies one san.X reference: catalog-checks ID
// constants and enforces the zero-cost rule on checking functions.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr, shipsUntagged bool, guards []posRange, catalog map[string]bool) {
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != sanPkg {
		return
	}
	switch obj := obj.(type) {
	case *types.Const:
		if isIDType(obj.Type()) && obj.Val().Kind() == constant.String {
			if id := constant.StringVal(obj.Val()); !catalog[id] {
				pass.Reportf(sel.Sel.Pos(), "invariant %s is not in DESIGN.md §6b's catalog", id)
			}
		}
	case *types.Func:
		if configAPI[obj.Name()] {
			return
		}
		if shipsUntagged && !inGuard(guards, sel.Pos()) {
			pass.Reportf(sel.Sel.Pos(),
				"san.%s in a file compiled without the san tag; move it to a //go:build san file or guard it with if san.Compiled so untagged builds stay zero-cost",
				obj.Name())
		}
	}
}

// checkFailfCall requires the invariant argument of san.Failf to be a
// constant the catalog knows, closing the ad-hoc `san.ID("...")` hole.
func checkFailfCall(pass *analysis.Pass, call *ast.CallExpr, catalog map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Failf" {
		return
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != sanPkg || len(call.Args) < 3 {
		return
	}
	arg := call.Args[2]
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "invariant passed to san.Failf must be a constant san.ID from the catalog")
		return
	}
	if id := constant.StringVal(tv.Value); !catalog[id] {
		pass.Reportf(arg.Pos(), "invariant %s is not in DESIGN.md §6b's catalog", id)
	}
}

func isIDType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "ID" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == sanPkg
}

// checkCatalogDecls runs inside internal/san itself: the declared ID
// constants and DESIGN.md §6b must list exactly the same invariants.
func checkCatalogDecls(pass *analysis.Pass) error {
	catalog, err := loadCatalog(pass.Loader.ModuleRoot)
	if err != nil {
		return err
	}
	declared := map[string]token.Pos{}
	scope := pass.Pkg.Scope()
	var idTypePos token.Pos
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			if obj.Name() == "ID" {
				idTypePos = obj.Pos()
			}
		case *types.Const:
			if isIDType(obj.Type()) && obj.Val().Kind() == constant.String {
				declared[constant.StringVal(obj.Val())] = obj.Pos()
			}
		}
	}
	for id, pos := range declared {
		if !catalog[id] {
			pass.Reportf(pos, "invariant %s has no entry in DESIGN.md §6b's catalog", id)
		}
	}
	var stale []string
	for id := range catalog {
		if _, ok := declared[id]; !ok {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		pass.Reportf(idTypePos, "DESIGN.md §6b catalogs %s but no san.ID constant declares it", id)
	}
	return nil
}

var idPattern = regexp.MustCompile(`SAN-[A-Z0-9]+(?:-[A-Z0-9]+)*`)

// loadCatalog reads DESIGN.md §6b and returns the set of invariant IDs it
// documents.
func loadCatalog(moduleRoot string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "DESIGN.md"))
	if err != nil {
		return nil, fmt.Errorf("sanlint needs the invariant catalog: %w", err)
	}
	section := catalogSection(string(data))
	if section == "" {
		return nil, fmt.Errorf("sanlint: DESIGN.md has no \"## 6b.\" invariant catalog section")
	}
	ids := map[string]bool{}
	for _, id := range idPattern.FindAllString(section, -1) {
		ids[id] = true
	}
	return ids, nil
}

// catalogSection extracts the §6b section body: from the "## 6b." heading
// to the next "## " heading.
func catalogSection(doc string) string {
	lines := strings.Split(doc, "\n")
	start := -1
	for i, line := range lines {
		if start < 0 {
			if strings.HasPrefix(line, "## 6b.") {
				start = i + 1
			}
			continue
		}
		if strings.HasPrefix(line, "## ") {
			return strings.Join(lines[start:i], "\n")
		}
	}
	if start < 0 {
		return ""
	}
	return strings.Join(lines[start:], "\n")
}
