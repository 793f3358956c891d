// Package cachefixture seeds shared-state violations for the sharelint
// analyzer. Its synthetic import path contains "cache", landing it in
// the simulator-package scope of rule 1; the dep subpackage supplies a
// lock-bearing type whose LockFact crosses the package boundary for
// rule 3.
package cachefixture

import (
	"sync"

	"bingo/internal/cachefixture/dep"
)

// Shared maps workload names to budgets.
var Shared = map[string]int{} // want `package-level var Shared is shared by every System`

// Registered maps workload names to budgets.
//
//conc:immutable populated at init, read-only afterwards
var Registered = map[string]int{}

// Guarded carries its own sync primitive: no annotation needed.
var Guarded sync.Mutex

// Mislabeled uses a contract word outside the vocabulary.
//
//conc:bogus not a real contract
var Mislabeled = []func(){} // want `unknown //conc: contract "bogus" on var Mislabeled`

// Unjustified names a contract but gives no reason.
//
//conc:core-local
var Unjustified = []func(){} // want `//conc:core-local on var Unjustified needs a reason`

// wrapper embeds the dep lock by value, becoming lock-bearing itself.
type wrapper struct {
	dep.Locked
	hits int
}

// Count copies the embedded lock through its value receiver.
func (w wrapper) Count() int { // want `receiver of method Count copies wrapper by value`
	return w.hits
}

// Merge receives a cross-package lock-bearing value by value.
func Merge(dst *dep.Locked, src dep.Locked) { // want `parameter of Merge copies bingo/internal/cachefixture/dep\.Locked by value`
	_ = src
	dst.Inc()
}

// Snapshot returns a lock-bearing value by value.
func Snapshot() dep.Locked { // want `result of Snapshot copies bingo/internal/cachefixture/dep\.Locked by value`
	return dep.Locked{}
}

// ByPointer moves lock-bearing values the right way.
func ByPointer(a *dep.Locked, b *wrapper) {
	a.Inc()
	b.hits++
}

// CopyPlain copies a lock-free dep type; rule 3 stays quiet.
func CopyPlain(p dep.Plain) int {
	return p.N
}
