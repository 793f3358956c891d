// Package prefetch defines the prefetcher abstraction shared by Bingo and
// every baseline: the access/eviction observation interface, trigger
// events, page footprints, a generic set-associative metadata table with
// LRU replacement, and the filter/accumulation region tracker used by
// per-page-history (PPH) prefetchers.
package prefetch

import "bingo/internal/mem"

// AccessEvent describes one demand access observed at the attach level
// (the LLC in this reproduction, per the paper's §V-B).
type AccessEvent struct {
	Addr  mem.Addr // physical address of the access
	PC    mem.PC   // program counter of the triggering instruction
	Core  int      // requesting core
	Write bool     // store rather than load
	Hit   bool     // whether the access hit at the attach level
}

// Prefetcher is the interface every prefetching algorithm implements.
// Implementations are per-core (no metadata sharing between cores, as in
// the paper). Each instance is driven only by the goroutine that runs
// its System, so instances never need internal locking — not even when
// a shared-metadata factory hands one instance to every core.
type Prefetcher interface {
	// Name identifies the algorithm and configuration.
	Name() string
	// OnAccess observes a demand access and returns the block-aligned
	// addresses that should be prefetched into the attach level. The
	// returned slice may alias storage the prefetcher reuses: it is valid
	// only until the next OnAccess call, and callers must consume (or
	// copy) it before then. The system issues the prefetches immediately,
	// so per-instance buffers keep the hot path allocation-free.
	OnAccess(ev AccessEvent) []mem.Addr
	// OnEviction observes a block leaving the attach level. PPH
	// prefetchers use this as the end-of-region-residency signal.
	OnEviction(addr mem.Addr)
	// StorageBytes returns the metadata budget the configuration implies,
	// used by the performance-density model.
	StorageBytes() int
}

// Factory creates one Prefetcher instance per core.
type Factory func(core int) Prefetcher

// OutcomeObserver is optionally implemented by prefetchers that want the
// fate of their prefetched lines fed back (useful first use vs unused
// eviction). The system routes cache outcome events to the issuing
// core's prefetcher when it implements this interface — the hook behind
// feedback-directed throttling.
type OutcomeObserver interface {
	OnPrefetchOutcome(useful bool)
}

// Nil is the no-prefetcher baseline.
type Nil struct{}

// Name implements Prefetcher.
func (Nil) Name() string { return "none" }

// OnAccess implements Prefetcher; it never prefetches.
func (Nil) OnAccess(AccessEvent) []mem.Addr { return nil }

// OnEviction implements Prefetcher.
func (Nil) OnEviction(mem.Addr) {}

// StorageBytes implements Prefetcher.
func (Nil) StorageBytes() int { return 0 }

var _ Prefetcher = Nil{}
