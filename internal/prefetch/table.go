package prefetch

import (
	"fmt"

	"bingo/internal/mem"
)

// Table is a generic set-associative metadata table with LRU replacement,
// the workhorse structure of every history-based prefetcher. Keys are
// full-width; the set index is a hash of the key and the tag is the key
// itself, so distinct keys never alias.
type Table[V any] struct {
	ways    int
	setMask uint64
	entries []tableEntry[V]
	clock   uint64
	size    int
	san     sanState // runtime invariant sanitizer (empty without -tags=san)
}

type tableEntry[V any] struct {
	valid bool
	tag   uint64
	lru   uint64
	value V
}

// TableSets returns the set count of a numEntries-entry, ways-way table.
// It is the one geometry rule of every set-associative prefetcher table:
// numEntries must be a positive multiple of ways and the set count a
// power of two. Configuration validators call it to check a size without
// allocating the table.
func TableSets(numEntries, ways int) (int, error) {
	if ways <= 0 || numEntries <= 0 || numEntries%ways != 0 {
		return 0, fmt.Errorf("prefetch: table entries %d not divisible into %d ways", numEntries, ways)
	}
	sets := numEntries / ways
	if !mem.IsPow2(sets) {
		return 0, fmt.Errorf("prefetch: table set count %d must be a power of two", sets)
	}
	return sets, nil
}

// NewTable creates a table with the given total entry count and
// associativity (see TableSets).
func NewTable[V any](numEntries, ways int) (*Table[V], error) {
	sets, err := TableSets(numEntries, ways)
	if err != nil {
		return nil, err
	}
	return &Table[V]{
		ways:    ways,
		setMask: uint64(sets - 1),
		entries: make([]tableEntry[V], numEntries),
	}, nil
}

// MustNewTable is NewTable that panics on error.
func MustNewTable[V any](numEntries, ways int) *Table[V] {
	t, err := NewTable[V](numEntries, ways)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int { return t.size }

// Capacity returns the total entry count.
func (t *Table[V]) Capacity() int { return len(t.entries) }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

func (t *Table[V]) set(key uint64) []tableEntry[V] {
	si := int(mem.Mix64(key) & t.setMask)
	return t.entries[si*t.ways : (si+1)*t.ways]
}

// Lookup returns a pointer to the value stored under key, touching its
// recency if touch is true. The pointer stays valid until the entry is
// evicted or erased.
func (t *Table[V]) Lookup(key uint64, touch bool) (*V, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			if touch {
				t.clock++
				set[i].lru = t.clock
			}
			return &set[i].value, true
		}
	}
	return nil, false
}

// Insert stores value under key, replacing any existing entry for the key
// and otherwise evicting the set's LRU victim. It returns the evicted
// key/value when a valid entry was displaced.
func (t *Table[V]) Insert(key uint64, value V) (evictedKey uint64, evictedVal V, evicted bool) {
	set := t.set(key)
	t.clock++
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			set[i].value = value
			set[i].lru = t.clock
			return 0, evictedVal, false
		}
		if !set[i].valid {
			if victim == -1 || set[victim].valid {
				victim = i
				victimLRU = 0
			}
			continue
		}
		if set[i].lru < victimLRU {
			victim = i
			victimLRU = set[i].lru
		}
	}
	e := &set[victim]
	if e.valid {
		evictedKey, evictedVal, evicted = e.tag, e.value, true
	} else {
		t.size++
	}
	*e = tableEntry[V]{valid: true, tag: key, lru: t.clock, value: value}
	t.sanAfterInsert(key)
	return evictedKey, evictedVal, evicted
}

// Erase removes the entry for key, returning its value if present.
func (t *Table[V]) Erase(key uint64) (V, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			v := set[i].value
			var zero V
			set[i] = tableEntry[V]{value: zero}
			t.size--
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Range calls fn for every valid entry until fn returns false. Iteration
// order is unspecified.
func (t *Table[V]) Range(fn func(key uint64, value *V) bool) {
	for i := range t.entries {
		if t.entries[i].valid {
			if !fn(t.entries[i].tag, &t.entries[i].value) {
				return
			}
		}
	}
}
