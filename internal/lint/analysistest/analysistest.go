// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures, mirroring
// golang.org/x/tools/go/analysis/analysistest on this repo's mini
// framework.
//
// A fixture file marks each line where a diagnostic is expected with a
// trailing comment:
//
//	pages[a>>12] = true // want `raw page shift`
//
// The backquoted text is a regular expression matched against the
// diagnostic message; several `want` comments may share a line by
// repeating the backquoted block:
//
//	x, y := f() // want `first` `second`
//
// Lines without a want comment must produce no diagnostic. Suppression
// directives (//lint:ignore) are honored exactly as in the real driver, so
// fixtures also lock down the suppression path.
package analysistest

import (
	"regexp"
	"testing"

	"bingo/internal/lint/analysis"
)

var (
	wantRe       = regexp.MustCompile("`([^`]*)`")
	wantMarkerRe = regexp.MustCompile(`^//\s*want\s`)
)

// Config customises a fixture run beyond Run's defaults.
type Config struct {
	// Tags are extra build tags satisfied while loading the fixture,
	// mirroring the real driver's one-loader-per-tag-set rule. Want
	// comments in files excluded by the configuration are not collected.
	Tags []string
	// Deps maps additional fixture packages — synthetic import path to
	// directory — that the package under test imports. They are loaded
	// into the same world but not analyzed themselves, so a fixture with a
	// Deps entry exercises the cross-package read (sharelint walks their
	// types through the loader).
	Deps map[string]string
}

// Run loads the package in dir under the synthetic import path importPath
// (chosen by the caller to land inside the analyzer's package scope),
// applies the analyzer, and reports expectation mismatches on t. It
// returns the diagnostics for callers that want extra assertions.
func Run(t *testing.T, moduleRoot, dir, importPath string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	return RunConfig(t, moduleRoot, dir, importPath, a, Config{})
}

// RunConfig is Run with build tags and dependency fixture packages.
func RunConfig(t *testing.T, moduleRoot, dir, importPath string, a *analysis.Analyzer, cfg Config) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loader.Tags = cfg.Tags
	loader.Override(importPath, dir)
	for depPath, depDir := range cfg.Deps {
		loader.Override(depPath, depDir)
	}
	diags, err := analysis.NewRunner(loader, []*analysis.Analyzer{a}).Package(importPath)
	if err != nil {
		t.Fatalf("run %s on %s (%s): %v", a.Name, importPath, dir, err)
	}
	pkg, err := loader.Load(importPath) // cached: same unit the runner analyzed
	if err != nil {
		t.Fatalf("load %s (%s): %v", importPath, dir, err)
	}

	type key struct {
		file string
		line int
	}
	// Collect want expectations from comments.
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !wantComment(text) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	// Honor //lint:ignore directives as the real driver does: suppressed
	// diagnostics are invisible to want matching and to callers.
	visible := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			visible = append(visible, d)
		}
	}
	diags = visible

	matched := map[key]int{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		res := wants[k]
		if matched[k] >= len(res) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			continue
		}
		re := res[matched[k]]
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want /%s/", pos.Filename, pos.Line, d.Message, re)
		}
		matched[k]++
	}
	for k, res := range wants {
		if got := matched[k]; got < len(res) {
			for _, re := range res[got:] {
				t.Errorf("%s:%d: expected diagnostic matching /%s/, got none", k.file, k.line, re)
			}
		}
	}
	return diags
}

// wantComment reports whether the comment carries a want expectation.
func wantComment(text string) bool {
	return wantMarkerRe.MatchString(text)
}
