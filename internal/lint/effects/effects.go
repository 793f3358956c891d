// Package effects is the interprocedural layer of the invariant suite:
// one pass over every package distills each function body into a compact,
// serializable effect summary — the allocation sites it contains, the
// package-level or receiver state it writes, and the calls (static,
// interface-dispatched, function-valued, and spawned) it makes. The
// summaries travel across package boundaries as one gob-encoded package
// fact (PkgEffects), exported by the Facts analyzer; consumers assemble
// them into a module-wide CHA-style call graph with the World helper in
// world.go and answer reachability questions no single-package analyzer
// can: "can the per-cycle hot path allocate?" (hotlint), "can a
// telemetry probe mutate simulator state?" (purelint).
//
// Call-graph construction is class-hierarchy analysis, deliberately
// unsound in the classic, documented ways:
//
//   - An interface method call edges to every module-local named type
//     implementing the interface (types.Implements over the package
//     closure), whether or not a value of that type can flow to the call
//     site. Over-approximate, so reachability checks stay conservative.
//   - A call through a function value edges to every module-local
//     function or closure whose reference escapes with the same
//     canonical signature, flow-insensitively. Function values built by
//     reflection, or received from outside the module, resolve to
//     nothing — code reachable only that way is invisible to the graph.
//   - Standard-library bodies are not summarized: calls into a small
//     table of known-allocating packages (fmt, errors, sort, ...) are
//     recorded as allocation sites, and everything else is assumed
//     effect-free.
//
// Positions cross package boundaries as module-relative "file:line"
// strings: token.Pos values are only meaningful against the FileSet that
// produced them, so each site keeps a live token.Pos in an unexported
// field that gob deliberately drops. A consumer analyzing the package
// that produced a summary sees real positions (the facts arrive live, in
// memory); a consumer in a downstream package reports remote sites at
// its own root declaration and names the remote position in the message.
package effects

import (
	"go/token"

	"bingo/internal/lint/analysis"
)

// EventKind discriminates the entries of a function's effect trace.
type EventKind uint8

// Event kinds.
const (
	EvCall    EventKind = iota + 1 // static call; Key = callee key
	EvDynCall                      // interface method call; Key = "pkgpath.Iface", Method, Sig set
	EvDynFunc                      // call through a function value; Sig set
	EvSpawn                        // go statement; Key/Sig as for EvCall/EvDynFunc, fresh goroutine
)

// Event is one call edge of a function's effect trace.
type Event struct {
	Kind EventKind
	// Key identifies the event's subject: a callee key for EvCall/EvSpawn,
	// the interface key "pkgpath.Iface" for EvDynCall.
	Key string
	// Method is the called method's name, for EvDynCall.
	Method string
	// Sig is the receiverless canonical signature, for EvDynCall (target
	// matching sanity) and EvDynFunc/EvSpawn-of-a-value (flow-insensitive
	// resolution against escaping function references).
	Sig string
}

// AllocSite is one place a function may allocate on the heap.
type AllocSite struct {
	// What names the allocation per the taxonomy in summarize.go:
	// "&composite literal", "slice literal", "map literal", "make", "new",
	// "append growth", "map write", "interface boxing", "closure",
	// "string concatenation", "string conversion", "go statement", or
	// "call to <pkg>.<fn>" for the known-allocating stdlib table.
	What string
	// Pos is the module-relative "file:line" of the site.
	Pos string
	// Waived carries the reason of a //hot:alloc annotation covering the
	// site (same line or the line above), or the function-level waiver
	// from the declaration's doc comment; empty means not waived.
	Waived string

	localPos token.Pos
}

// LocalPos returns the site's live position, or token.NoPos remotely.
func (a *AllocSite) LocalPos() token.Pos { return a.localPos }

// WriteSite is one store to state that outlives the function: a
// package-level variable, or a field reached through a pointer, slice,
// or map. Writes to local value variables are not recorded.
type WriteSite struct {
	// Pkg is the import path of the package owning the written state —
	// the variable's package, or the declaring package of the named type
	// whose field is written. Ownership is type-based: purelint needs no
	// flow analysis to decide whether telemetry state or simulator state
	// was touched.
	Pkg string
	// Target is "pkgpath.Var" or "pkgpath.Type.Field" (or "pkgpath.Type"
	// for a whole-value store through a pointer).
	Target string
	// Pos is the module-relative "file:line" of the store.
	Pos string
	// Waived carries the reason of an //obs:write annotation covering
	// the site; empty means not waived.
	Waived string

	localPos token.Pos
}

// LocalPos returns the site's live position, or token.NoPos remotely.
func (w *WriteSite) LocalPos() token.Pos { return w.localPos }

// FuncRef records a function or closure whose reference escapes — it is
// assigned, passed, stored, or returned as a value — making it a
// candidate target for every call through a function value of the same
// canonical signature.
type FuncRef struct {
	Key string
	Sig string
}

// FuncEffects is the effect summary of one function, method, or function
// literal (literals get synthetic keys "parent$N").
type FuncEffects struct {
	// Key is the function's canonical key: "pkgpath.Func",
	// "pkgpath.Type.Method", "pkgpath.init#N", or "parentKey$N".
	Key string
	// Pkg is the declaring package's import path.
	Pkg string
	// Name is the bare declared name, for messages.
	Name string
	// Decl is the module-relative "file:line" of the declaration.
	Decl string
	// Sig is the receiverless canonical signature.
	Sig string
	// Test marks functions declared in _test.go files.
	Test bool
	// Tagged marks functions declared in files excluded from the default
	// (untagged) build — sanitizer hooks and friends. hotlint skips them:
	// they do not ship on the hot path.
	Tagged bool
	// HotRoot marks the shape-matched per-cycle entry points: non-test
	// methods named OnAccess (one parameter, one result), OnEviction (one
	// parameter, no results), or Tick (no results).
	HotRoot bool
	// HotPath carries the reason of a //hot:path annotation declaring
	// this function an additional hot root.
	HotPath string
	// AllocFree carries the reason of a function-level //hot:alloc
	// annotation waiving every allocation site in this body.
	AllocFree string

	Allocs []AllocSite
	Writes []WriteSite
	// Trace lists the body's call edges, deferred and spawned calls
	// included.
	Trace []Event

	localDecl token.Pos
}

// LocalDecl returns the declaration's live position, or token.NoPos for
// a summary that crossed a package boundary.
func (fe *FuncEffects) LocalDecl() token.Pos { return fe.localDecl }

// PkgEffects is the package fact carrying every function summary and
// escaping function reference of one package.
type PkgEffects struct {
	Funcs   map[string]*FuncEffects
	Escapes []FuncRef
}

// AFact marks PkgEffects as a fact type.
func (*PkgEffects) AFact() {}

// Facts is the effect-summary producer: it emits no diagnostics, only
// one PkgEffects fact per package. The reachability analyzers (hotlint,
// purelint) list it in Requires and assemble the module-wide
// view with NewWorld.
var Facts = &analysis.Analyzer{
	Name:      "effectfacts",
	Doc:       "summarize every function's allocations, state writes, and call edges as a cross-package fact",
	FactTypes: []analysis.Fact{new(PkgEffects)},
	Run:       runFacts,
}

func runFacts(pass *analysis.Pass) error {
	pass.ExportPackageFact(summarizePackage(pass))
	return nil
}
