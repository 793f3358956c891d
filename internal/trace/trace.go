// Package trace defines the memory-access trace model driving the
// simulator: a Record per memory instruction (annotated with the number of
// non-memory instructions preceding it), a Source abstraction for streams
// of records, and a compact binary on-disk format with Reader/Writer.
//
// Workload generators (package workloads) produce Sources directly; the
// tracegen tool can also persist them so identical traces can be replayed
// across prefetcher configurations.
package trace

import (
	"bingo/internal/mem"
)

// Kind distinguishes load and store memory operations.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Record is one memory instruction in a trace. NonMem is the number of
// non-memory instructions the core executed since the previous Record;
// this keeps traces compact while preserving instruction counts for IPC.
//
// Dep marks an address-dependent access: its address is computed from the
// value of the most recent load (pointer chasing), so the core cannot
// issue it until that load completes. This is what makes pointer-heavy
// workloads latency-bound rather than bandwidth-bound, and is the
// property data prefetching converts into speedup.
type Record struct {
	PC     mem.PC
	Addr   mem.Addr
	Kind   Kind
	NonMem uint32
	Dep    bool
}

// Instructions returns the number of instructions this record accounts
// for: the memory instruction itself plus the preceding non-memory ones.
func (r Record) Instructions() uint64 { return uint64(r.NonMem) + 1 }

// Source yields a stream of records. Next returns ok=false when the
// stream is exhausted. Implementations need not be safe for concurrent
// use; the simulator drives each core's source from a single goroutine.
//
// Distinct Source instances must, however, not share mutable state
// (package-level RNGs, reused buffers): the parallel experiment engine
// runs many simulations concurrently, each driving its own sources.
// Audit note: every implementation in this package and in package
// workloads keeps all mutable state (RNGs, queues, gzip buffers)
// instance-local, so concurrently running systems never touch shared
// memory through their traces.
type Source interface {
	// Next returns the next record of the stream.
	Next() (Record, bool)
}

// FuncSource adapts a closure to the Source interface.
type FuncSource func() (Record, bool)

// Next calls the underlying closure.
func (f FuncSource) Next() (Record, bool) { return f() }

// SliceSource replays an in-memory slice of records.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source that yields recs in order.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of records.
func (s *SliceSource) Len() int { return len(s.recs) }

// Limit wraps src and stops after max records (or earlier if src ends).
type Limit struct {
	src Source
	n   int
	max int
}

// NewLimit returns a Source yielding at most max records from src.
func NewLimit(src Source, max int) *Limit { return &Limit{src: src, max: max} }

// Next implements Source.
func (l *Limit) Next() (Record, bool) {
	if l.n >= l.max {
		return Record{}, false
	}
	r, ok := l.src.Next()
	if !ok {
		return Record{}, false
	}
	l.n++
	return r, true
}

// Collect drains src (up to max records; max ≤ 0 means unlimited) into a
// slice. Useful for tests and for replaying identical traces.
func Collect(src Source, max int) []Record {
	var out []Record
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}
