// Package lint assembles simlint, the simulator's invariant suite:
// project-specific analyzers on the mini go/analysis framework in
// internal/lint/analysis. See the package docs of detlint,
// errlint, paramlint, sanlint, sharelint and unitlint for the invariant
// each one guards, DESIGN.md §10 for the
// catalog, and README.md ("Static analysis & invariants") for the
// suppression directives.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/detlint"
	"bingo/internal/lint/errlint"
	"bingo/internal/lint/paramlint"
	"bingo/internal/lint/sanlint"
	"bingo/internal/lint/sharelint"
	"bingo/internal/lint/unitlint"
)

// Suite returns the full analyzer suite in stable (alphabetical) order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detlint.Analyzer,
		errlint.Analyzer,
		paramlint.Analyzer,
		sanlint.Analyzer,
		sharelint.Analyzer,
		unitlint.Analyzer,
	}
}

// Options configures one Check run.
type Options struct {
	// Analyzers to run; nil means the full Suite.
	Analyzers []*analysis.Analyzer
	// Tests also analyzes each package's _test.go compilation units (the
	// in-package unit and the external package_test unit).
	Tests bool
	// San runs a second pass with the `san` build tag, so the sanitizer's
	// gated files (sancheck_san.go and friends) are analyzed too.
	// Duplicate findings from files shared by both configurations are
	// deduplicated.
	San bool
	// JSON switches the output from "path:line:col: message [analyzer]"
	// lines to a single JSON document that also includes suppressed
	// findings, marked with their suppression reason.
	JSON bool
	// UnusedSuppressions reports //lint:ignore and //lint:file-ignore
	// directives that no longer suppress any finding — for analyzers in
	// this run, and for names no analyzer in the Suite answers to — as
	// findings.
	UnusedSuppressions bool
	// SARIF, when non-nil, also receives the findings as a SARIF 2.1.0
	// log for code-scanning upload. Like JSON, it includes suppressed
	// findings (carried as inSource suppressions).
	SARIF io.Writer
}

// Finding is one diagnostic with its position resolved, as emitted in
// -json output. File is relative to the module root.
type Finding struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	Suppressed   bool   `json:"suppressed,omitempty"`
	SuppressedBy string `json:"suppressedBy,omitempty"`
}

// Check loads every package matched by patterns (relative to moduleRoot)
// and runs the configured analyzers, writing findings to w. It returns
// the number of actionable findings: unsuppressed diagnostics plus, when
// requested, unused suppression directives. Suppressed findings appear
// (marked) only in the JSON and SARIF outputs.
func Check(w io.Writer, moduleRoot string, patterns []string, opts Options) (int, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Suite()
	}
	findings, dirs, err := runConfig(moduleRoot, nil, patterns, analyzers, opts.Tests)
	if err != nil {
		return 0, err
	}
	if opts.San {
		sanFindings, sanDirs, err := runConfig(moduleRoot, []string{"san"}, patterns, analyzers, opts.Tests)
		if err != nil {
			return 0, err
		}
		findings = append(findings, sanFindings...)
		dirs = append(dirs, sanDirs...)
	}
	findings = dedupeFindings(findings)
	if opts.UnusedSuppressions {
		findings = append(findings, unusedSuppressions(moduleRoot, dirs, analyzers)...)
	}
	sortFindings(findings)

	count := 0
	for _, f := range findings {
		if !f.Suppressed {
			count++
		}
	}
	if opts.SARIF != nil {
		docs := map[string]string{
			"unused-suppression": "a //lint:ignore or //lint:file-ignore directive that no longer suppresses any finding",
		}
		for _, a := range analyzers {
			docs[a.Name] = firstLine(a.Doc)
		}
		if err := writeSARIF(opts.SARIF, findings, docs); err != nil {
			return count, err
		}
	}
	if opts.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []Finding `json:"findings"`
		}{Findings: findings}); err != nil {
			return count, err
		}
		return count, nil
	}
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	return count, nil
}

// runConfig analyzes patterns under one build configuration (tag set) and
// returns resolved findings plus the suppression directives seen.
func runConfig(moduleRoot string, tags, patterns []string, analyzers []*analysis.Analyzer, tests bool) ([]Finding, []*analysis.Directive, error) {
	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		return nil, nil, err
	}
	loader.Tags = tags
	runner := analysis.NewRunner(loader, analyzers)
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, nil, err
	}
	var findings []Finding
	for _, path := range paths {
		diags, err := runner.Package(path)
		if err != nil {
			return nil, nil, err
		}
		if tests {
			testDiags, err := runner.TestUnits(path)
			if err != nil {
				return nil, nil, err
			}
			diags = append(diags, testDiags...)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			findings = append(findings, Finding{
				File:         analysis.ModuleRel(moduleRoot, pos.Filename),
				Line:         pos.Line,
				Col:          pos.Column,
				Analyzer:     d.Analyzer,
				Message:      d.Message,
				Suppressed:   d.Suppressed,
				SuppressedBy: d.SuppressedBy,
			})
		}
	}
	return findings, runner.Directives(), nil
}

// dedupeFindings collapses findings reported identically by more than one
// build configuration (untagged files are analyzed by both the default
// and the san pass). A finding suppressed in either pass stays marked.
func dedupeFindings(findings []Finding) []Finding {
	type key struct {
		file          string
		line, col     int
		analyzer, msg string
	}
	idx := map[key]int{}
	out := findings[:0:0]
	for _, f := range findings {
		k := key{f.File, f.Line, f.Col, f.Analyzer, f.Message}
		if i, ok := idx[k]; ok {
			if f.Suppressed && !out[i].Suppressed {
				out[i].Suppressed = true
				out[i].SuppressedBy = f.SuppressedBy
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, f)
	}
	return out
}

// unusedSuppressions turns directives that suppressed nothing in any
// configuration into findings. Usage is merged across configurations
// first: a directive used only under -tags=san is not stale. Directives
// naming a Suite analyzer left out of this run (-only) are skipped — a
// partial run proves nothing about them — but a directive naming no
// Suite analyzer at all can never suppress anything and is reported.
func unusedSuppressions(moduleRoot string, dirs []*analysis.Directive, analyzers []*analysis.Analyzer) []Finding {
	inSuite, inRun := map[string]bool{}, map[string]bool{}
	for _, a := range Suite() {
		inSuite[a.Name] = true
	}
	for _, a := range analyzers {
		inRun[a.Name] = true
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	merged := map[key]*analysis.Directive{}
	used := map[key]bool{}
	for _, d := range dirs {
		k := key{d.File, d.Line, d.Analyzer}
		merged[k] = d
		used[k] = used[k] || d.Used
	}
	keys := make([]key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		if keys[i].line != keys[j].line {
			return keys[i].line < keys[j].line
		}
		return keys[i].analyzer < keys[j].analyzer
	})
	var out []Finding
	for _, k := range keys {
		d := merged[k]
		if used[k] || (inSuite[d.Analyzer] && !inRun[d.Analyzer]) {
			continue
		}
		kind := "ignore"
		if d.FileWide {
			kind = "file-ignore"
		}
		stale := "no longer suppresses anything"
		if !inSuite[d.Analyzer] && !inRun[d.Analyzer] {
			stale = "names no analyzer in the suite"
		}
		out = append(out, Finding{
			File:     analysis.ModuleRel(moduleRoot, d.File),
			Line:     d.Line,
			Col:      d.Col,
			Analyzer: "unused-suppression",
			Message:  fmt.Sprintf("//lint:%s %s %s; delete it (reason was: %s)", kind, d.Analyzer, stale, d.Reason),
		})
	}
	return out
}

func sortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
