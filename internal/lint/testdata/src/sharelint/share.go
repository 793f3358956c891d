// Package cachefixture seeds shared-state violations for the sharelint
// analyzer. Its synthetic import path contains "cache", landing it in
// the simulator-package scope of rule 1; the dep subpackage supplies a
// lock-bearing type whose structure the rule-1 exemption must see
// through across the package boundary. The by-value copies below are go
// vet's copylocks territory, so sharelint stays quiet on them.
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

// GuardedDep holds a sync primitive inside another package's type: no
// annotation needed either.
var GuardedDep dep.Locked

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
func (w wrapper) Count() int {
	return w.hits
}

// Merge receives a cross-package lock-bearing value by value.
func Merge(dst *dep.Locked, src dep.Locked) {
	_ = src
	dst.Inc()
}

// Snapshot returns a lock-bearing value by value.
func Snapshot() dep.Locked {
	return dep.Locked{}
}

// ByPointer moves lock-bearing values the right way.
func ByPointer(a *dep.Locked, b *wrapper) {
	a.Inc()
	b.hits++
}

// CopyPlain copies a lock-free dep type.
func CopyPlain(p dep.Plain) int {
	return p.N
}
