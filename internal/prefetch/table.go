package prefetch

import (
	"fmt"
	"math/bits"

	"bingo/internal/mem"
)

// Table is a generic set-associative metadata table with LRU replacement,
// the workhorse structure of every history-based prefetcher. Keys are
// full-width; the set index is a hash of the key and the tag is the key
// itself, so distinct keys never alias.
//
// Each way also has a one-byte fingerprint, packed eight to a word in
// fps: the top byte of the key's hash with its high bit set, or 0 for an
// empty way. A probe compares a set's fingerprint words against the key's
// byte all at once and reads the full tag only of the ways that match, so
// a probe that misses (most RegionTracker erases do) reads one word per
// eight ways and no entry. Tags, recency stamps and values live in
// parallel slices indexed set*ways+way.
type Table[V any] struct {
	ways    int
	words   int    // fingerprint words per set: ways rounded up to 8 lanes
	tail    uint64 // lane mask of a set's last fingerprint word
	setMask uint64
	fps     []uint64
	tags    []uint64
	lru     []uint64
	values  []V
	clock   uint64
	size    int
	san     sanState // runtime invariant sanitizer (empty without -tags=san)
}

// Fingerprint-word constants: laneOnes repeats a byte across the eight
// lanes of a word, and laneHigh/laneLow split each lane's bits.
const (
	laneOnes uint64 = 0x0101010101010101
	laneHigh uint64 = 0x8080808080808080
	laneLow  uint64 = 0x7f7f7f7f7f7f7f7f
)

// zeroLanes returns laneHigh's bit set in every lane of x that is zero,
// and no other bit. It is exact: no carry crosses a lane.
func zeroLanes(x uint64) uint64 {
	return ^((x&laneLow + laneLow) | x | laneLow)
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
	words := (ways + 7) / 8
	tail := laneHigh
	if r := ways % 8; r != 0 {
		tail = laneHigh & (1<<(8*r) - 1)
	}
	return &Table[V]{
		ways:    ways,
		words:   words,
		tail:    tail,
		setMask: uint64(sets - 1),
		fps:     make([]uint64, sets*words),
		tags:    make([]uint64, numEntries),
		lru:     make([]uint64, numEntries),
		values:  make([]V, numEntries),
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
func (t *Table[V]) Capacity() int { return len(t.tags) }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// slot returns key's set and its fingerprint byte, both from one hash.
func (t *Table[V]) slot(key uint64) (set int, fp uint64) {
	h := mem.Mix64(key)
	return int(h & t.setMask), h>>56 | 0x80
}

// fp returns the fingerprint byte of way w of set si (0: empty way).
func (t *Table[V]) fp(si, w int) uint64 {
	return t.fps[si*t.words+w/8] >> (8 * uint(w%8)) & 0xff
}

// setFP writes the fingerprint byte of way w of set si (0 empties it).
func (t *Table[V]) setFP(si, w int, fp uint64) {
	word := &t.fps[si*t.words+w/8]
	shift := 8 * uint(w%8)
	*word = *word&^(0xff<<shift) | fp<<shift
}

// find returns the index of key's entry in set si, or -1. Only ways whose
// fingerprint byte equals fp have their tag read.
func (t *Table[V]) find(si int, fp, key uint64) int {
	pattern := fp * laneOnes
	for k, word := range t.fps[si*t.words : (si+1)*t.words] {
		for m := zeroLanes(word ^ pattern); m != 0; m &= m - 1 {
			i := si*t.ways + 8*k + bits.TrailingZeros64(m)/8
			if t.tags[i] == key {
				return i
			}
		}
	}
	return -1
}

// probe is find for Insert: besides key's entry (or -1) it returns the
// set's lowest-indexed empty way (or -1 when the set is full), read from
// the same fingerprint words, so an insert scans the set once. find
// keeps its one compare per word for the misses of Lookup and Erase.
func (t *Table[V]) probe(si int, fp, key uint64) (found, empty int) {
	pattern := fp * laneOnes
	words := t.fps[si*t.words : (si+1)*t.words]
	empty = -1
	for k, word := range words {
		for m := zeroLanes(word ^ pattern); m != 0; m &= m - 1 {
			i := si*t.ways + 8*k + bits.TrailingZeros64(m)/8
			if t.tags[i] == key {
				return i, -1
			}
		}
		if empty < 0 {
			m := zeroLanes(word)
			if k == len(words)-1 {
				m &= t.tail
			}
			if m != 0 {
				empty = si*t.ways + 8*k + bits.TrailingZeros64(m)/8
			}
		}
	}
	return -1, empty
}

// lruWay returns the index of the least recently used way of full set si
// (the lowest-indexed one on a tie).
func (t *Table[V]) lruWay(si int) int {
	base := si * t.ways
	stamps := t.lru[base : base+t.ways]
	oldest := stamps[0]
	for _, s := range stamps {
		oldest = min(oldest, s) // branch-free: the oldest way is unpredictable
	}
	victim := 0
	for stamps[victim] != oldest {
		victim++
	}
	return base + victim
}

// Lookup returns a pointer to the value stored under key, touching its
// recency if touch is true. The pointer stays valid until the entry is
// evicted or erased.
func (t *Table[V]) Lookup(key uint64, touch bool) (*V, bool) {
	si, fp := t.slot(key)
	i := t.find(si, fp, key)
	if i < 0 {
		return nil, false
	}
	if touch {
		t.clock++
		t.lru[i] = t.clock
	}
	return &t.values[i], true
}

// Insert stores value under key, replacing any existing entry for the key
// and otherwise filling the set's lowest-indexed empty way, or evicting
// its LRU victim when none is empty. It returns the evicted key/value
// when a valid entry was displaced.
func (t *Table[V]) Insert(key uint64, value V) (evictedKey uint64, evictedVal V, evicted bool) {
	si, fp := t.slot(key)
	t.clock++
	i, empty := t.probe(si, fp, key)
	if i >= 0 {
		t.values[i] = value
		t.lru[i] = t.clock
		return 0, evictedVal, false
	}
	i = empty
	if i < 0 {
		i = t.lruWay(si)
		evictedKey, evictedVal, evicted = t.tags[i], t.values[i], true
	} else {
		t.size++
	}
	t.tags[i], t.lru[i], t.values[i] = key, t.clock, value
	t.setFP(si, i-si*t.ways, fp)
	t.sanAfterInsert(key)
	return evictedKey, evictedVal, evicted
}

// Erase removes the entry for key, returning its value if present.
func (t *Table[V]) Erase(key uint64) (V, bool) {
	var zero V
	si, fp := t.slot(key)
	i := t.find(si, fp, key)
	if i < 0 {
		return zero, false
	}
	v := t.values[i]
	t.tags[i], t.lru[i], t.values[i] = 0, 0, zero
	t.setFP(si, i-si*t.ways, 0)
	t.size--
	return v, true
}

// Range calls fn for every valid entry, in index order (set by set, way
// by way), until fn returns false.
func (t *Table[V]) Range(fn func(key uint64, value *V) bool) {
	for si, i := 0, 0; i < len(t.tags); si++ {
		for w := 0; w < t.ways; w, i = w+1, i+1 {
			if t.fp(si, w) != 0 && !fn(t.tags[i], &t.values[i]) {
				return
			}
		}
	}
}
