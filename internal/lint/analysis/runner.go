package analysis

import "fmt"

// Runner drives an analyzer suite over packages of one Loader
// configuration (one set of build tags, one type-checked world). It
// analyzes exactly the units it is asked for: an analyzer that needs
// another package's code reads it from the loader (see Pass.Loader), so
// nothing has to run on dependencies first. The suppression directives
// of every analyzed unit accumulate for the stale-directive report.
//
// A Runner is not safe for concurrent use, matching its Loader.
type Runner struct {
	loader     *Loader
	analyzers  []*Analyzer
	directives []*Directive
}

// NewRunner binds analyzers to loader's package world.
func NewRunner(loader *Loader, analyzers []*Analyzer) *Runner {
	return &Runner{loader: loader, analyzers: analyzers}
}

// Package loads importPath, runs the suite on it, and returns its
// diagnostics — suppressed ones included, marked, so drivers can surface
// them in structured output.
func (r *Runner) Package(importPath string) ([]Diagnostic, error) {
	pkg, err := r.loader.Load(importPath)
	if err != nil {
		return nil, err
	}
	return r.analyze(pkg)
}

// TestUnits analyzes the test packages of importPath (the in-package
// unit re-type-checked with its _test.go files, and the external
// package_test unit, when either exists) and returns their diagnostics.
func (r *Runner) TestUnits(importPath string) ([]Diagnostic, error) {
	units, err := r.loader.TestUnits(importPath)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, unit := range units {
		diags, err := r.analyze(unit)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}

// analyze runs the suite over one loaded unit.
func (r *Runner) analyze(pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range r.analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Loader:   r.loader,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	dirs := collectDirectives(pkg)
	markSuppressed(pkg, dirs, diags)
	r.directives = append(r.directives, dirs...)
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// Directives returns every suppression directive seen in the packages
// this runner analyzed, with usage marks. A directive is "used" when it
// covered at least one finding; drivers merge usage across configurations
// (default and san-tagged passes) before declaring one stale.
func (r *Runner) Directives() []*Directive { return r.directives }
