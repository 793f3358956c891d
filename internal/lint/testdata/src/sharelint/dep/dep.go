// Package dep is the cross-package half of the sharelint fixture: it
// exports a mutex-bearing type the importing fixture package holds in a
// package-level var. It is itself
// finding-free (its import path lands in sharelint's simulator-package
// scope, so it must hold up under rule 1 too).
package dep

import "sync"

// Locked guards its counter with its own mutex; copying it by value
// duplicates the lock.
type Locked struct {
	mu sync.Mutex
	n  int
}

// Inc bumps the counter under the lock.
func (l *Locked) Inc() {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

// Plain holds no lock; copying it is fine.
type Plain struct {
	N int
}
