// Package hotlint keeps the simulator's per-access hot path
// allocation-free, interprocedurally: every function reachable from a
// prefetcher's OnAccess/OnEviction or a core's per-cycle Tick — across
// package boundaries, through interface dispatch, and through stored
// function values — must contain no heap-allocating construct, or carry
// an explicit waiver
//
//	//hot:alloc <reason>
//
// on the allocating line (or the line above), or on the function's doc
// comment to waive the whole body. Additional hot roots are declared
// with //hot:path <reason> on the root's doc comment.
//
// The bug this closes is drift the single-package allocation tests
// cannot see: internal/alloc_test.go proves a fixed set of entry points
// steady-state allocation-free at runtime, but only for the workloads
// it happens to drive, and only for the functions it happens to list. A
// helper three calls deep that grows a slice on a cold branch, or a new
// prefetcher wired into the registry but never added to the test table,
// allocates in production runs and skews cycle-accuracy without failing
// anything. hotlint walks the class-hierarchy call graph built from the
// effects summaries (see internal/lint/effects for the soundness
// caveats) and flags every unwaived allocation site the hot roots
// reach, whichever package it lives in.
//
// Hot roots are shape-matched at summary time: non-test methods named
// OnAccess (one parameter, one result), OnEviction (one parameter, no
// results), or Tick (no results). The walk does not descend into other
// hot roots (their own package's run owns their findings), into
// functions declared in build-tagged files (sanitizer hooks do not ship
// on the hot path), or into the sanitizer's own packages. Allocation
// sites inside the analyzed package are reported at the site; sites
// reached in dependency packages are reported at the root's declaration
// with the remote position in the message.
package hotlint

import (
	"strings"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/effects"
)

// Analyzer reports reachable, unwaived allocation sites on the hot path
// and malformed //hot: annotations.
var Analyzer = &analysis.Analyzer{
	Name: "hotlint",
	Doc: "require every function reachable from OnAccess/OnEviction/Tick to be allocation-free " +
		"or carry //hot:alloc <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkMarkers(pass)
	w := effects.NewWorld(pass)
	here := pass.Pkg.Path()
	reportedLocal := map[string]bool{}  // "pos\x00what"
	reportedRemote := map[string]bool{} // "rootKey\x00pos\x00what"
	for _, key := range w.SortedKeys() {
		root := w.Funcs[key]
		if root.Pkg != here || root.Test || root.Tagged || !isRoot(root) {
			continue
		}
		walkRoot(pass, w, root, reportedLocal, reportedRemote)
	}
	return nil
}

func isRoot(fe *effects.FuncEffects) bool {
	return fe.HotRoot || fe.HotPath != ""
}

// skipDescend reports whether the hot-path walk stops at fe without
// inspecting it: other hot roots own their findings, tagged functions
// do not ship, and the sanitizer's instrumentation is allowed to
// allocate by design.
func skipDescend(root, fe *effects.FuncEffects) bool {
	if fe != root && isRoot(fe) {
		return true
	}
	if fe.Tagged || fe.Test {
		return true
	}
	return strings.HasPrefix(fe.Key, "bingo/internal/san.")
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
		if skipDescend(root, fe) {
			return
		}
		if fe.AllocFree == "" {
			for i := range fe.Allocs {
				site := &fe.Allocs[i]
				if site.Waived != "" {
					continue
				}
				where := w.Where(site.Pos)
				if fe.Pkg == here {
					k := where + "\x00" + site.What
					if !local[k] {
						local[k] = true
						pass.Reportf(site.Pos,
							"%s on the hot path from %s; remove it or annotate //hot:alloc <reason>",
							site.What, root.Key)
					}
				} else {
					k := root.Key + "\x00" + where + "\x00" + site.What
					if !remote[k] {
						remote[k] = true
						pass.Reportf(root.Decl,
							"hot path from %s reaches %s in %s (%s); remove it or annotate //hot:alloc <reason> there",
							root.Key, site.What, fe.Key, where)
					}
				}
			}
		}
		w.Edges(fe, func(ev *effects.Event, target string) {
			// A spawned goroutine runs off the hot path; the go statement
			// itself is already an allocation site above.
			if ev.Kind == effects.EvSpawn {
				return
			}
			if next := w.Funcs[target]; next != nil {
				visit(next)
			}
		})
	}
	visit(root)
}

// checkMarkers validates every //hot: annotation in the package: the
// verb must be alloc or path, and the reason is mandatory — a silent
// waiver is a finding, so every exemption is justified on record.
func checkMarkers(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m, ok := analysis.ParseMarker(c.Text)
				if !ok || m.Domain != "hot" {
					continue
				}
				switch m.Verb {
				case "alloc", "path":
					if m.Arg == "" {
						pass.Reportf(c.Pos(), "//hot:%s needs a reason", m.Verb)
					}
				default:
					pass.Reportf(c.Pos(), "unknown //hot: verb %q (want alloc or path)", m.Verb)
				}
			}
		}
	}
}
