// Package purelint keeps observation passive: functions reachable from
// the telemetry layer may read any simulator state they like, but must
// never write state owned outside telemetry — directly or through any
// call chain the effects call graph can follow. A probe that mutates
// what it measures turns every experiment into a Heisenberg experiment:
// enabling metrics shifts the numbers being measured, and A/B runs with
// different telemetry configurations silently diverge. Deliberate
// exceptions (a probe that resets its sampling seed inside a shared
// RNG, say) carry
//
//	//obs:write <reason>
//
// on the writing line (or the line above), so every mutation made under
// observation is justified on record.
//
// Roots are every non-test function declared in a telemetry package
// (import path containing "telemetry"). The walk crosses package
// boundaries through the effects summaries — class-hierarchy resolution
// for interface calls, signature matching for function values; see
// internal/lint/effects for the soundness caveats. Writes whose
// type-based owner is itself a telemetry package are allowed (the layer
// may maintain its own counters). Everything else module-local is a
// finding. Local sites are reported where they stand; sites reached in
// dependency packages are reported at the root's declaration with the
// remote position in the message.
package purelint

import (
	"strings"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/effects"
)

// Analyzer reports unwaived writes to non-telemetry state reachable
// from telemetry code, and malformed //obs: annotations.
var Analyzer = &analysis.Analyzer{
	Name: "purelint",
	Doc: "forbid functions reachable from telemetry from writing non-telemetry simulator state " +
		"without //obs:write <reason>",
	Requires: []*analysis.Analyzer{effects.Facts},
	Run:      run,
}

func telemetryPkg(path string) bool {
	return strings.Contains(path, "telemetry")
}

func run(pass *analysis.Pass) error {
	checkMarkers(pass)
	if !telemetryPkg(pass.Pkg.Path()) {
		return nil
	}
	w := effects.NewWorld(pass)
	here := pass.Pkg.Path()
	reportedLocal := map[string]bool{}
	reportedRemote := map[string]bool{}
	for _, key := range w.SortedKeys() {
		root := w.Funcs[key]
		if root.Pkg != here || root.Test || root.Tagged {
			continue
		}
		walkRoot(pass, w, root, reportedLocal, reportedRemote)
	}
	return nil
}

func walkRoot(pass *analysis.Pass, w *effects.World, root *effects.FuncEffects, local, remote map[string]bool) {
	here := pass.Pkg.Path()
	seen := map[string]bool{}
	var visit func(fe *effects.FuncEffects)
	visit = func(fe *effects.FuncEffects) {
		if seen[fe.Key] {
			return
		}
		seen[fe.Key] = true
		// The walk stops at other telemetry functions only when they live
		// in a different telemetry package — that package's own run owns
		// them. Within this package, every root is also walked as a callee.
		if fe.Pkg != here && telemetryPkg(fe.Pkg) {
			return
		}
		for i := range fe.Writes {
			site := &fe.Writes[i]
			if site.Waived != "" || telemetryPkg(site.Pkg) {
				continue
			}
			if fe.Pkg == here && site.LocalPos().IsValid() {
				k := site.Pos + "\x00" + site.Target
				if !local[k] {
					local[k] = true
					pass.Reportf(site.LocalPos(),
						"telemetry code writes simulator state %s; observation must be passive — annotate //obs:write <reason> if deliberate",
						site.Target)
				}
			} else {
				k := root.Key + "\x00" + site.Pos + "\x00" + site.Target
				if !remote[k] {
					remote[k] = true
					pass.Reportf(root.LocalDecl(),
						"telemetry root %s reaches a write to simulator state %s in %s (%s); observation must be passive — annotate //obs:write <reason> there if deliberate",
						root.Key, site.Target, fe.Key, site.Pos)
				}
			}
		}
		// Spawn edges are followed too: a goroutine launched from a probe
		// still mutates on the observer's behalf.
		w.Edges(fe, func(_ *effects.Event, target string) {
			if next := w.Funcs[target]; next != nil {
				visit(next)
			}
		})
	}
	visit(root)
}

// checkMarkers validates every //obs: annotation in the package: write
// is the only verb, and the reason is mandatory.
func checkMarkers(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m, ok := analysis.ParseMarker(c.Text)
				if !ok || m.Domain != "obs" {
					continue
				}
				if m.Verb != "write" {
					pass.Reportf(c.Pos(), "unknown //obs: verb %q (want write)", m.Verb)
				} else if m.Arg == "" {
					pass.Reportf(c.Pos(), "//obs:write needs a reason")
				}
			}
		}
	}
}
