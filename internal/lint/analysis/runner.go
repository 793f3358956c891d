package analysis

import (
	"fmt"
	"strings"
)

// Runner drives a scheduled analyzer suite over packages of one Loader
// configuration (one set of build tags, one type-checked world).
//
// The runner is what makes the suite cross-package: before analyzing a
// package it analyzes every module-local dependency first (memoized), so
// by the time an analyzer asks for a fact of an imported object, the
// exporting package's facts are already committed — serialized — to the
// fact store. Diagnostics are collected per package; callers decide which
// packages' findings to report (dependencies pulled in only for facts
// stay silent unless asked for).
//
// A Runner is not safe for concurrent use, matching its Loader.
type Runner struct {
	loader    *Loader
	analyzers []*Analyzer // scheduled: requirements before dependents
	db        *factDB

	diags    map[string][]Diagnostic // unit key → findings (suppressed included, marked)
	analyzed map[string]bool         // unit key → completed
	visiting map[string]bool         // re-entrancy guard (import cycles surface in the loader first)

	directives []*Directive
}

// NewRunner schedules analyzers (expanding Requires, rejecting cycles),
// registers their fact types for serialization, and binds the result to
// loader's package world.
func NewRunner(loader *Loader, analyzers []*Analyzer) (*Runner, error) {
	order, err := Schedule(analyzers)
	if err != nil {
		return nil, err
	}
	registerFactTypes(order)
	return &Runner{
		loader:    loader,
		analyzers: order,
		db:        newFactDB(),
		diags:     map[string][]Diagnostic{},
		analyzed:  map[string]bool{},
		visiting:  map[string]bool{},
	}, nil
}

// Package loads importPath (and, first, its module-local dependency
// closure), runs the scheduled suite on it, and returns its diagnostics
// — suppressed ones included, marked, so drivers can surface them in
// structured output. Results are memoized; analyzing a package twice is
// free.
func (r *Runner) Package(importPath string) ([]Diagnostic, error) {
	if err := r.ensure(importPath); err != nil {
		return nil, err
	}
	return r.diags[importPath], nil
}

func (r *Runner) ensure(importPath string) error {
	if r.analyzed[importPath] {
		return nil
	}
	if r.visiting[importPath] {
		return fmt.Errorf("import cycle through %s", importPath)
	}
	r.visiting[importPath] = true
	defer delete(r.visiting, importPath)

	pkg, err := r.loader.Load(importPath)
	if err != nil {
		return err
	}
	for _, imp := range pkg.Types.Imports() {
		if r.moduleLocal(imp.Path()) {
			if err := r.ensure(imp.Path()); err != nil {
				return err
			}
		}
	}
	diags, err := r.analyze(pkg, true)
	if err != nil {
		return err
	}
	r.diags[importPath] = diags
	r.analyzed[importPath] = true
	return nil
}

// TestUnits analyzes the test packages of importPath (the in-package
// unit re-type-checked with its _test.go files, and the external
// package_test unit, when either exists) and returns their diagnostics.
// Test units never commit facts: nothing imports them, and their
// augmented view of a package must not shadow the shipping one.
func (r *Runner) TestUnits(importPath string) ([]Diagnostic, error) {
	if err := r.ensure(importPath); err != nil {
		return nil, err // dependencies' facts, and the package's own
	}
	units, err := r.loader.TestUnits(importPath)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, unit := range units {
		// External units import the package under test and possibly other
		// module packages; make sure their facts exist too.
		for _, imp := range unit.Types.Imports() {
			if r.moduleLocal(imp.Path()) {
				if err := r.ensure(imp.Path()); err != nil {
					return nil, err
				}
			}
		}
		diags, err := r.analyze(unit, false)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}

func (r *Runner) moduleLocal(path string) bool {
	return path == r.loader.ModulePath || strings.HasPrefix(path, r.loader.ModulePath+"/")
}

// analyze runs the scheduled suite over one loaded unit. Facts exported
// by each analyzer are visible live to later analyzers of the same unit
// and, when commit is set, serialized into the store for downstream
// packages.
func (r *Runner) analyze(pkg *Package, commit bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	live := map[string]factSet{}
	liveFacts := func(name string) factSet { return live[name] }
	for _, a := range r.analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			ModuleRoot: r.loader.ModuleRoot,
			diags:      &diags,
			db:         r.db,
			liveFacts:  liveFacts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		live[a.Name] = pass.facts
	}
	if commit {
		for _, a := range r.analyzers {
			if err := r.db.commit(pkg.ImportPath, a.Name, live[a.Name]); err != nil {
				return nil, err
			}
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
