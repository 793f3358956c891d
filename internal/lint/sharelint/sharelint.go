// Package sharelint guards the one form of sharing the simulator still
// has: the `-j` worker pool runs many Systems in one process, so any
// package-level state in the simulator packages (cache, core, cpu, dram,
// prefetch, prefetchers, system, telemetry, trace, vm) is shared
// by every System at once. Each System is driven by one goroutine, so
// state inside a System needs no contract. One rule applies:
//
//  1. Package-level vars in the simulator packages must hold a sync
//     primitive by value, or carry a //conc: contract annotation (see
//     below). Whether a type holds one is decided by walking its
//     structure, across package boundaries, in the shared type-checked
//     world.
//
// Rule 2 (a //conc: contract on every cross-component struct field) was
// retired with the parallel per-core frontend it existed for, and rule 3
// (no by-value copies of lock-bearing values) was handed to go vet's
// copylocks pass, which `make lint` and CI run; the rule numbers are kept
// so older references stay meaningful.
//
// The annotation vocabulary, shared with the rest of the suite:
//
//	//conc:immutable <reason>        never written after construction/init
//	//conc:core-local <reason>       only one System's goroutine touches it
//	//conc:barrier-guarded <reason>  accessed only under an external
//	                                 serialization point the reason names
//
// A reason is mandatory; an annotation without one is itself a finding.
// Test files are exempt.
//
// sharelint is the static half of the check. The dynamic oracle for
// cross-System sharing is `go test -race ./...` (a CI step), which runs
// the `-j` determinism tests in internal/harness/parallel_test.go: many
// Systems simulating concurrently in one process.
package sharelint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bingo/internal/lint/analysis"
)

// Analyzer enforces the shared-state rule described in the package
// documentation.
var Analyzer = &analysis.Analyzer{
	Name: "sharelint",
	Doc: "require //conc: contract annotations (or sync primitives) on package-level state in the " +
		"simulator packages",
	Run: run,
}

// scopeWords identify the simulator packages every System in a `-j`
// process links against. Matching by path segment keeps analysistest
// fixtures, loaded under synthetic bingo/internal/... paths, in scope.
var scopeWords = []string{
	"cache", "core", "cpu", "dram", "prefetch",
	"system", "telemetry", "trace", "vm",
}

func inScope(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, "bingo/internal/")
	if !ok || strings.HasPrefix(rest, "lint") {
		return false
	}
	for _, w := range scopeWords {
		if strings.Contains(rest, w) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			if decl, ok := decl.(*ast.GenDecl); ok {
				checkGenDecl(pass, decl)
			}
		}
	}
	return nil
}

// checkGenDecl applies rule 1 to var declarations.
func checkGenDecl(pass *analysis.Pass, decl *ast.GenDecl) {
	if decl.Tok != token.VAR {
		return // consts are immutable by construction
	}
	for _, spec := range decl.Specs {
		spec, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range spec.Names {
			if name.Name == "_" {
				continue // interface-satisfaction assertions hold no state
			}
			obj, ok := pass.ObjectOf(name).(*types.Var)
			if !ok {
				continue
			}
			if holdsSync(obj.Type(), map[types.Type]bool{}) {
				continue
			}
			if checkConcAnnotation(pass, name.Pos(), "var "+name.Name, spec.Doc, spec.Comment, decl.Doc) {
				continue
			}
			pass.Reportf(name.Pos(),
				"package-level var %s is shared by every System the -j pool runs in one process; guard it with a sync primitive or annotate //conc:immutable|core-local|barrier-guarded <reason>",
				name.Name)
		}
	}
}

// syncPrimitives are the sync types that guard the state holding them.
var syncPrimitives = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Map": true, "Cond": true, "Pool": true,
}

// holdsSync reports whether t is, or by value contains, a sync primitive
// (a sync type above, or any sync/atomic type) — the "already
// synchronized" exemption of rule 1. Named types from other packages are
// walked structurally; seen breaks recursive type cycles.
func holdsSync(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				return syncPrimitives[t.Obj().Name()]
			case "sync/atomic":
				return true
			}
		}
		return holdsSync(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsSync(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsSync(t.Elem(), seen)
	}
	return false
}

// concContracts is the annotation vocabulary of rule 1.
var concContracts = map[string]bool{
	"immutable":       true,
	"core-local":      true,
	"barrier-guarded": true,
}

// checkConcAnnotation reports whether the declaration carries a //conc:
// annotation (reporting malformed ones as it goes). A well-formed
// annotation with a reason satisfies the rule; one without a reason or
// with an unknown contract word is reported and still counts as present,
// so the caller does not double-report.
func checkConcAnnotation(pass *analysis.Pass, pos token.Pos, label string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			m, ok := analysis.ParseMarker(c.Text)
			if !ok || m.Domain != "conc" {
				continue
			}
			if !concContracts[m.Verb] {
				pass.Reportf(pos, "unknown //conc: contract %q on %s (want immutable, core-local, or barrier-guarded)", m.Verb, label)
				return true
			}
			if m.Arg == "" {
				pass.Reportf(pos, "//conc:%s on %s needs a reason", m.Verb, label)
			}
			return true
		}
	}
	return false
}
