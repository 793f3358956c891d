// Package san is the simulator's runtime invariant sanitizer: an
// ASan/TSan-style checking layer that the hot simulation paths call into
// at well-defined points (cache accesses, DRAM transfers, core ticks,
// system cycles, history-table operations). Each call site verifies a
// dynamic invariant the paper's model depends on — MSHR fill semantics,
// DRAM bank/row-buffer legality, bandwidth ceilings, lockstep cycle
// monotonicity, event conservation, and the rule that a prefetcher may
// change timing but never architectural behaviour (Bingo, HPCA 2019 §V).
//
// The layer is compiled in only under the `san` build tag: without the
// tag, Compiled is the untyped constant false, every per-package sanState
// is an empty struct, and every hook is an empty method the compiler
// inlines to nothing — default builds pay zero cost, enforced by the
// zero-allocation guards in internal/cache. With the tag, checks are
// additionally gated by the Config runtime switch (on by default) so a
// sanitized binary can still produce a reference run with checking off.
//
// On violation the offending hook panics with a *Violation carrying the
// component, the simulated cycle, the invariant ID, and a dump of the
// offending state. A violation is always a simulator bug (or a
// misconfigured model), never a recoverable condition — continuing would
// silently corrupt every reported IPC/coverage number.
//
// Concurrency contract: Apply/SetEnabled store into atomics and may be
// called at any time, but the intended protocol is configure once (flag
// parsing, test setup) before simulations start; the parallel experiment
// engine then reads the switch from many goroutines. The catalog of
// invariant IDs with their paper/model justifications lives in
// DESIGN.md §6b ("Invariant catalog").
package san

import (
	"fmt"
	"sync/atomic"
)

// ID names one checkable invariant. IDs are stable strings (they appear
// in violation reports, DESIGN.md, and CI logs) of the form
// SAN-<COMPONENT>-<INVARIANT>.
type ID string

// The invariant catalog. See DESIGN.md §6b for the model justification
// behind each entry.
const (
	// CacheDupTag: a set never holds two valid lines with the same tag.
	CacheDupTag ID = "SAN-CACHE-DUP-TAG"
	// CacheOccupancy: valid lines in a set never exceed the associativity.
	CacheOccupancy ID = "SAN-CACHE-OCCUPANCY"
	// CacheLRU: the replacement state is well-formed (distinct recency
	// stamps, stamps never ahead of the LRU clock, victims in range).
	CacheLRU ID = "SAN-CACHE-LRU"
	// CacheMSHR: fill arrival cycles are never in the past — every access
	// completes at or after the level's own hit latency, and in-flight
	// fills coalesce rather than re-issue (MSHR semantics).
	CacheMSHR ID = "SAN-CACHE-MSHR"
	// CacheClock: access cycles presented to one cache never run backwards.
	CacheClock ID = "SAN-CACHE-CLOCK"
	// CacheEvents: demand accesses = hits + misses, and prefetches issued =
	// fills + drops, after every single access (event conservation).
	CacheEvents ID = "SAN-CACHE-EVENTS"
	// CachePrefetchAccounting: prefetched ∧ used ⇒ counted exactly once:
	// fills = useful + unused + still-resident prefetched lines.
	CachePrefetchAccounting ID = "SAN-CACHE-PF-ACCOUNTING"

	// DramBankState: after an access the bank has the accessed row open and
	// frees no later than the transfer completes.
	DramBankState ID = "SAN-DRAM-BANK-STATE"
	// DramRowClass: the hit/empty/conflict classification (and its latency)
	// matches the bank's actual prior row-buffer state.
	DramRowClass ID = "SAN-DRAM-ROW-CLASS"
	// DramBandwidth: per-channel bus occupancy never exceeds the wall-clock
	// window it was accumulated over — the configured peak (37.5 GB/s for
	// the paper's two channels) is a hard ceiling.
	DramBandwidth ID = "SAN-DRAM-BANDWIDTH"
	// DramMonotone: per-channel completion times are strictly monotone and
	// never earlier than the controller plus transfer minimum.
	DramMonotone ID = "SAN-DRAM-MONOTONE"

	// CPUTick: core ticks observe a non-decreasing cycle, and ROB/LSQ
	// occupancies stay within their configured capacities.
	CPUTick ID = "SAN-CPU-TICK"
	// CPURetire: a memory operation only retires once its completion
	// cycle has passed, in order, at most Width instructions per cycle.
	CPURetire ID = "SAN-CPU-RETIRE"
	// CPUStretch: a run of identical ticks RunAhead applies in one step
	// stays below its bound and within the work, the head operation's
	// latency and the ROB room that make the ticks identical.
	CPUStretch ID = "SAN-CPU-STRETCH"

	// SysClock: the system clock is strictly monotone.
	SysClock ID = "SAN-SYS-CLOCK"
	// SysEvents: end-to-end event conservation — every L1 demand miss is an
	// LLC demand access, per-core prefetch queues respect their bound.
	SysEvents ID = "SAN-SYS-EVENTS"
	// SysOrder: the event engine issues memory operations in
	// non-decreasing (cycle, core) order, never at or past the current
	// cut, and every core has finished every cycle below a cut when the
	// loop takes it.
	SysOrder ID = "SAN-SYS-ORDER"

	// BingoResidency: the unified history table never exceeds its
	// configured residency (valid entries per set ≤ ways, unique long tags
	// within a set).
	BingoResidency ID = "SAN-BINGO-RESIDENCY"
	// BingoFootprint: footprints and trigger offsets stay within the
	// region geometry (no bits at or beyond Blocks()).
	BingoFootprint ID = "SAN-BINGO-FOOTPRINT"

	// TableResidency: the generic prefetcher metadata table keeps unique
	// tags per set and a size that matches the valid-entry count.
	TableResidency ID = "SAN-TABLE-RESIDENCY"
)

// Violation is the structured report a failing invariant panics with.
type Violation struct {
	// Component names the failing model instance ("LLC", "dram", "cpu[2]").
	Component string
	// Cycle is the simulated cycle at which the violation was detected.
	Cycle uint64
	// Invariant is the catalog ID of the broken invariant.
	Invariant ID
	// Detail dumps the offending state.
	Detail string
}

// Error renders the structured report.
func (v *Violation) Error() string {
	return fmt.Sprintf("san: invariant violation\n  invariant: %s\n  component: %s\n  cycle:     %d\n  state:     %s",
		v.Invariant, v.Component, v.Cycle, v.Detail)
}

// Failf panics with a structured Violation report. It is called only from
// checking code that has already detected a broken invariant, so the
// allocations it performs never occur on a healthy run.
func Failf(component string, cycle uint64, inv ID, format string, args ...any) {
	panic(&Violation{
		Component: component,
		Cycle:     cycle,
		Invariant: inv,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Config is the runtime switch of a sanitized build. The zero value is
// "checking off"; DefaultConfig is what a `-tags=san` binary starts with.
type Config struct {
	// Enabled turns every hook into a real check. In a binary built
	// without the san tag this field is ignored — there is nothing to
	// switch on.
	Enabled bool
	// DeepInterval is the period, in per-component events, of the
	// O(structure-size) sweeps (full prefetch-bit recounts, table
	// residency audits). Cheap O(1) checks run on every event regardless.
	// Zero selects the default.
	DeepInterval uint64
}

// DefaultConfig enables checking with an 8192-event deep-sweep period.
func DefaultConfig() Config { return Config{Enabled: true, DeepInterval: 8192} }

const defaultDeepInterval = 8192

var (
	enabled      atomic.Bool
	deepInterval atomic.Uint64
)

func init() {
	// Sanitized builds check by default, so `go test -tags=san ./...`
	// exercises every invariant without per-test setup.
	enabled.Store(Compiled)
	deepInterval.Store(defaultDeepInterval)
}

// Apply installs the runtime switch. Call before simulations start.
func Apply(c Config) {
	if c.DeepInterval == 0 {
		c.DeepInterval = defaultDeepInterval
	}
	deepInterval.Store(c.DeepInterval)
	enabled.Store(c.Enabled && Compiled)
}

// SetEnabled toggles checking without touching the deep-sweep period.
func SetEnabled(on bool) { enabled.Store(on && Compiled) }

// Enabled reports whether hooks should check. In a build without the san
// tag Compiled is constant false, so this folds to false and callers'
// check blocks are dead-code-eliminated.
func Enabled() bool { return Compiled && enabled.Load() }

// DeepInterval returns the configured deep-sweep period (≥ 1).
func DeepInterval() uint64 {
	if v := deepInterval.Load(); v > 0 {
		return v
	}
	return defaultDeepInterval
}
