// Package analysis is a self-contained, dependency-free re-implementation
// of the core of golang.org/x/tools/go/analysis, sized for this repository.
// The repo deliberately carries no module dependencies (go.mod has no
// require block), so the invariant suite in internal/lint is built on this
// mini framework instead of x/tools: the Analyzer / Pass / Diagnostic /
// Fact surface mirrors the upstream API closely enough that an analyzer
// written here ports to a real multichecker by changing one import.
//
// The framework loads packages with the standard library only: go/parser
// for syntax, go/types for type checking, and go/importer's source
// importer for standard-library dependencies. Module-local imports
// (bingo/...) are resolved by the Loader itself so that fixtures and the
// repository's own packages share one type-checked world.
//
// Since PR 7 the framework is cross-package: analyzers may declare
// prerequisite analyzers (Requires — scheduled topologically, cycles are
// errors) and attach Facts to packages that downstream packages
// consume through a serialized store. The Runner analyzes
// packages in module dependency order so facts always exist before they
// are imported; see runner.go and facts.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards, shown by `simlint -help`.
	Doc string
	// Requires lists analyzers that must run on each package before this
	// one (typically fact producers). The runner schedules the closure
	// topologically and rejects cycles.
	Requires []*Analyzer
	// FactTypes declares the concrete fact types this analyzer exports,
	// as pointers to zero values (e.g. new(FooFact)). Required for gob
	// registration; an analyzer that exports an undeclared fact type
	// fails at serialization time.
	FactTypes []Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is a finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is the reporting analyzer's name; filled in by the runner.
	Analyzer string
	// Suppressed marks a finding covered by a //lint:ignore or
	// //lint:file-ignore directive; SuppressedBy carries the directive's
	// reason. Drivers print suppressed findings only on request (-json).
	Suppressed   bool
	SuppressedBy string
}

// Pass carries one type-checked package through one analyzer, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModuleRoot is the directory holding go.mod — for the rare analyzer
	// that checks source against a non-Go artifact (sanlint vs the
	// DESIGN.md invariant catalog).
	ModuleRoot string

	diags *[]Diagnostic

	// Fact plumbing, wired by the runner.
	facts     factSet              // facts exported by this pass
	db        *factDB              // serialized facts of other packages
	liveFacts func(string) factSet // uncommitted facts of this package's run
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers that
// guard shipping-binary properties (wall-clock determinism, zero-cost
// sanitizer gating) use this to exempt test-only code, which is analyzed
// when the loader's test units are enabled.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by ident, consulting both uses and
// definitions, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Run applies the analyzers (plus their Requires closure, scheduled
// topologically) to one already-loaded package and returns its
// unsuppressed diagnostics. Dependency packages are analyzed first so
// imported facts exist; their diagnostics are not returned. It is the
// single-package convenience entry; drivers that report on many packages
// use a Runner directly.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if pkg.loader == nil {
		return nil, fmt.Errorf("%s was not loaded by a Loader", pkg.ImportPath)
	}
	r, err := NewRunner(pkg.loader, analyzers)
	if err != nil {
		return nil, err
	}
	diags, err := r.Package(pkg.ImportPath)
	if err != nil {
		return nil, err
	}
	kept := diags[:0:0]
	for _, d := range diags {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool { return diagLess(fset, diags[i], diags[j]) })
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	return a.Analyzer < b.Analyzer
}
