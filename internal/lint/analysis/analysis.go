// Package analysis is a self-contained, dependency-free re-implementation
// of the core of golang.org/x/tools/go/analysis, sized for this repository.
// The repo deliberately carries no module dependencies (go.mod has no
// require block), so the invariant suite in internal/lint is built on this
// mini framework instead of x/tools: the Analyzer / Pass / Diagnostic
// surface mirrors the upstream API closely enough that a single-package
// analyzer written here ports to a real multichecker by changing one
// import.
//
// The framework loads packages with the standard library only: go/parser
// for syntax, go/types for type checking, and go/importer's source
// importer for standard-library dependencies. Module-local imports
// (bingo/...) are resolved by the Loader itself so that fixtures and the
// repository's own packages share one FileSet and one type-checked world.
//
// There are no package facts and no analyzer prerequisites. An analyzer
// that needs another package's code reads it from that world: every
// module-local package a unit imports is already in its Loader's cache,
// type-checked against the same FileSet. sharelint's walk of another
// package's types works this way. The Runner therefore analyzes only the
// units it is asked for, in the order it is asked.
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
	// Loader produced the unit. Every module-local package the unit
	// imports is in its cache, type-checked against Fset, so an analyzer
	// can read another package's syntax directly. Its ModuleRoot serves
	// the rare analyzer that checks source against a non-Go artifact
	// (sanlint vs the DESIGN.md invariant catalog).
	Loader *Loader

	diags *[]Diagnostic
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

// Run applies the analyzers to one already-loaded package and returns
// its unsuppressed diagnostics. It is the single-package convenience
// entry; drivers that report on many packages use a Runner directly.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if pkg.loader == nil {
		return nil, fmt.Errorf("%s was not loaded by a Loader", pkg.ImportPath)
	}
	diags, err := NewRunner(pkg.loader, analyzers).Package(pkg.ImportPath)
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
