package prefetch

import (
	"math/rand"
	"sort"
	"testing"

	"bingo/internal/mem"
)

// refTable is the reference model for Table: a map from key to its way
// and recency stamp, with no fingerprints and no packing. It places a new
// key in the lowest-indexed empty way of its set, else evicts the set's
// least recently used way, and advances one clock on every insert and
// every touching lookup that hits.
type refTable struct {
	ways, sets int
	clock      uint64
	entries    map[uint64]*refEntry
}

type refEntry struct {
	set, way int
	stamp    uint64
	value    uint64
}

func newRefTable(numEntries, ways int) *refTable {
	return &refTable{ways: ways, sets: numEntries / ways, entries: map[uint64]*refEntry{}}
}

func (r *refTable) setOf(key uint64) int { return int(mem.Mix64(key) & uint64(r.sets-1)) }

func (r *refTable) lookup(key uint64, touch bool) (uint64, bool) {
	e, ok := r.entries[key]
	if !ok {
		return 0, false
	}
	if touch {
		r.clock++
		e.stamp = r.clock
	}
	return e.value, true
}

func (r *refTable) insert(key, value uint64) (evictedKey, evictedVal uint64, evicted bool) {
	r.clock++
	if e, ok := r.entries[key]; ok {
		e.value, e.stamp = value, r.clock
		return 0, 0, false
	}
	set := r.setOf(key)
	used := make([]bool, r.ways)
	var lru *refEntry
	for k, e := range r.entries {
		if e.set != set {
			continue
		}
		used[e.way] = true
		if lru == nil || e.stamp < lru.stamp {
			lru, evictedKey = e, k
		}
	}
	way := -1
	for w := range used {
		if !used[w] {
			way = w
			break
		}
	}
	if way < 0 {
		way, evictedVal, evicted = lru.way, lru.value, true
		delete(r.entries, evictedKey)
	} else {
		evictedKey = 0
	}
	r.entries[key] = &refEntry{set: set, way: way, stamp: r.clock, value: value}
	return evictedKey, evictedVal, evicted
}

func (r *refTable) erase(key uint64) (uint64, bool) {
	e, ok := r.entries[key]
	if !ok {
		return 0, false
	}
	delete(r.entries, key)
	return e.value, true
}

// inIndexOrder returns the resident keys ordered set by set, way by way.
func (r *refTable) inIndexOrder() []uint64 {
	keys := make([]uint64, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := r.entries[keys[i]], r.entries[keys[j]]
		return a.set*r.ways+a.way < b.set*r.ways+b.way
	})
	return keys
}

// collidingKeys returns n distinct keys whose hashes give the same set
// and the same fingerprint byte as seed's, in a table of sets sets, so
// a probe for any of them finds the others as fingerprint candidates.
func collidingKeys(seed uint64, sets, n int) []uint64 {
	h := mem.Mix64(seed)
	want := h&uint64(sets-1) | (h>>56|0x80)<<56
	keys := []uint64{seed}
	for k := seed + 1; len(keys) < n; k++ {
		if g := mem.Mix64(k); g&uint64(sets-1)|(g>>56|0x80)<<56 == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableMatchesReference drives Table and the reference model with the
// same random Insert, Lookup (touching and not), Erase and Range calls at
// 4, 8, 12 and 16 ways. The key pool mixes random keys with keys that
// share a set and a fingerprint byte, so probes meet false-positive
// candidates and full sets. It checks every result, the victim choice,
// Range's index order, and that a pointer Lookup returned still reads the
// entry's current value until the entry is erased or evicted.
func TestTableMatchesReference(t *testing.T) {
	for _, ways := range []int{4, 8, 12, 16} {
		const sets = 8
		tbl := MustNewTable[uint64](sets*ways, ways)
		ref := newRefTable(sets*ways, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		pool := collidingKeys(1, sets, ways+4)
		pool = append(pool, collidingKeys(1<<40, sets, ways/2+2)...)
		pool = append(pool, 0) // the tag an empty way holds
		for len(pool) < 4*sets*ways {
			pool = append(pool, rng.Uint64()%(1<<20))
		}
		ptrs := map[uint64]*uint64{} // pointers Lookup handed out, by key
		for op := 0; op < 25000; op++ {
			key := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 4:
				val := rng.Uint64()
				ek, ev, ok := tbl.Insert(key, val)
				rk, rv, rok := ref.insert(key, val)
				if ek != rk || ev != rv || ok != rok {
					t.Fatalf("ways %d op %d: Insert(%#x) evicted %#x/%d/%v, reference %#x/%d/%v", ways, op, key, ek, ev, ok, rk, rv, rok)
				}
				if ok {
					delete(ptrs, ek)
				}
			case r < 8:
				touch := r < 6
				p, ok := tbl.Lookup(key, touch)
				rv, rok := ref.lookup(key, touch)
				if ok != rok || ok && *p != rv {
					t.Fatalf("ways %d op %d: Lookup(%#x, %v) = %v, reference %d/%v", ways, op, key, touch, ok, rv, rok)
				}
				if ok {
					if old, had := ptrs[key]; had && old != p {
						t.Fatalf("ways %d op %d: Lookup(%#x) moved its value", ways, op, key)
					}
					ptrs[key] = p
				}
			case r < 9:
				v, ok := tbl.Erase(key)
				rv, rok := ref.erase(key)
				if v != rv || ok != rok {
					t.Fatalf("ways %d op %d: Erase(%#x) = %d/%v, reference %d/%v", ways, op, key, v, ok, rv, rok)
				}
				delete(ptrs, key)
			default:
				var got []uint64
				tbl.Range(func(k uint64, v *uint64) bool {
					if *v != ref.entries[k].value {
						t.Fatalf("ways %d op %d: Range gave %#x=%d, reference %d", ways, op, k, *v, ref.entries[k].value)
					}
					got = append(got, k)
					return true
				})
				want := ref.inIndexOrder()
				if len(got) != len(want) {
					t.Fatalf("ways %d op %d: Range visited %d entries, reference %d", ways, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ways %d op %d: Range order %#x, reference (index order) %#x", ways, op, got, want)
					}
				}
				n := 0
				tbl.Range(func(uint64, *uint64) bool { n++; return n < 2 })
				if len(want) >= 2 && n != 2 {
					t.Fatalf("ways %d op %d: Range did not stop when fn returned false", ways, op)
				}
			}
			if tbl.Len() != len(ref.entries) {
				t.Fatalf("ways %d op %d: Len = %d, reference %d", ways, op, tbl.Len(), len(ref.entries))
			}
			for k, p := range ptrs {
				if *p != ref.entries[k].value {
					t.Fatalf("ways %d op %d: pointer for %#x reads %d, entry holds %d", ways, op, k, *p, ref.entries[k].value)
				}
			}
		}
	}
}
