// Package sharelint guards the one form of sharing the simulator still
// has: the `-j` worker pool runs many Systems in one process, so any
// package-level state in the simulator packages (cache, core, cpu, dram,
// prefetch, prefetchers, sched, system, telemetry, trace, vm) is shared
// by every System at once. Each System is driven by one goroutine, so
// state inside a System needs no contract. Two rules apply:
//
//  1. Package-level vars in the simulator packages must hold a sync
//     primitive by value, or carry a //conc: contract annotation (see
//     below).
//
//  3. Lock-bearing values must not be passed, returned, or received by
//     value: the copy duplicates the lock, the classic lost-wakeup /
//     deadlock footgun. Unlike rule 1 this one applies to every package,
//     and it is cross-package: whether a type holds a lock is resolved
//     through the LockFact facts the sharefacts analyzer exports (this
//     supersedes contractlint's old local copy check).
//
// Rule 2 (a //conc: contract on every cross-component struct field) was
// retired with the parallel per-core frontend it existed for; the rule
// numbers are kept so older references stay meaningful.
//
// The annotation vocabulary, shared with the rest of the suite:
//
//	//conc:immutable <reason>        never written after construction/init
//	//conc:core-local <reason>       only one System's goroutine touches it
//	//conc:barrier-guarded <reason>  accessed only under an external
//	                                 serialization point the reason names
//
// A reason is mandatory; an annotation without one is itself a finding.
// Test files are exempt from rule 1 but not from rule 3 (a copied lock
// is broken anywhere).
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

// Analyzer enforces the concurrency-readiness rules described in the
// package documentation.
var Analyzer = &analysis.Analyzer{
	Name: "sharelint",
	Doc: "require //conc: contract annotations (or sync primitives) on package-level state in the " +
		"simulator packages, and forbid by-value copies of lock-bearing types anywhere",
	Requires: []*analysis.Analyzer{Facts},
	Run:      run,
}

// scopeWords identify the simulator packages every System in a `-j`
// process links against. Matching by path segment keeps analysistest
// fixtures, loaded under synthetic bingo/internal/... paths, in scope.
var scopeWords = []string{
	"cache", "core", "cpu", "dram", "prefetch",
	"sched", "system", "telemetry", "trace", "vm",
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
	scoped := inScope(pass.Pkg.Path())
	for _, f := range pass.Files {
		inTest := pass.InTestFile(f.Package)
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if scoped && !inTest {
					checkGenDecl(pass, decl)
				}
			case *ast.FuncDecl:
				checkFuncDecl(pass, decl)
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
			if IsSynchronized(pass, obj.Type()) {
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

// checkFuncDecl applies rule 3 to a function's receiver, parameters, and
// results.
func checkFuncDecl(pass *analysis.Pass, decl *ast.FuncDecl) {
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			checkByValue(pass, field, "receiver of method "+decl.Name.Name)
		}
	}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			checkByValue(pass, field, "parameter of "+decl.Name.Name)
		}
	}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			checkByValue(pass, field, "result of "+decl.Name.Name)
		}
	}
}

func checkByValue(pass *analysis.Pass, field *ast.Field, where string) {
	t := pass.TypeOf(field.Type)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if HoldsLock(pass, t) {
		pass.Reportf(field.Type.Pos(), "%s copies %s by value, duplicating the lock it holds; use a pointer",
			where, types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}
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
