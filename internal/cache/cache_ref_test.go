package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"bingo/internal/mem"
)

// refCache is the reference model for Cache: a map from block to the
// set and way holding it, and an explicit recency list per set (least
// recently used first), with no packing. Its rules are the cache's:
// a miss fills the lowest-indexed invalid way of its set, else evicts
// the head of the set's list; every reference moves the way to the tail.
type refCache struct {
	ways, sets int
	latency    uint64
	name       string
	lower      Level
	where      map[uint64]int // block → set*ways+way
	lines      []refLine      // set*ways+way
	recency    [][]int        // per set: ways, least recently used first
	stats      Stats
	evicted    []mem.Addr      // eviction-listener calls
	outcomes   []refOutcome    // outcome-callback calls
	probe      *recordingProbe // lifecycle callbacks
}

type refLine struct {
	block              uint64
	arrival            uint64
	core               int
	valid, dirty, pref bool
}

type refOutcome struct {
	core   int
	useful bool
}

func newRefCache(cfg Config, lower Level) *refCache {
	sets := cfg.SizeBytes / (cfg.Assoc * mem.BlockSize)
	r := &refCache{ways: cfg.Assoc, sets: sets, latency: cfg.HitLatency, name: cfg.Name, lower: lower,
		where: map[uint64]int{}, lines: make([]refLine, sets*cfg.Assoc), recency: make([][]int, sets),
		probe: &recordingProbe{}}
	for s := range r.recency {
		for w := 0; w < r.ways; w++ {
			r.recency[s] = append(r.recency[s], w)
		}
	}
	return r
}

func (r *refCache) touch(set, way int) {
	list := r.recency[set]
	for i, w := range list {
		if w == way {
			r.recency[set] = append(append(list[:i:i], list[i+1:]...), way)
			return
		}
	}
}

func (r *refCache) evict(now uint64, i int) {
	ln := &r.lines[i]
	r.stats.Evictions++
	if ln.pref {
		r.stats.UnusedPrefetch++
		r.probe.PrefetchEvictUnused(ln.core)
		r.outcomes = append(r.outcomes, refOutcome{ln.core, false})
	}
	addr := mem.Addr(ln.block << mem.BlockShift)
	if ln.dirty {
		r.stats.Writebacks++
		r.lower.(interface{ Writeback(uint64, mem.Addr) }).Writeback(now, addr)
	}
	r.evicted = append(r.evicted, addr)
	delete(r.where, ln.block)
	ln.valid = false
}

func (r *refCache) install(now uint64, ln refLine) {
	set := int(ln.block % uint64(r.sets))
	way := -1
	for w := 0; w < r.ways; w++ {
		if !r.lines[set*r.ways+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = r.recency[set][0]
		r.evict(now, set*r.ways+way)
	}
	ln.valid = true
	r.lines[set*r.ways+way] = ln
	r.where[ln.block] = set*r.ways + way
	r.touch(set, way)
}

func (r *refCache) access(now uint64, req Request) Result {
	block := req.Addr.BlockNumber()
	ready := now + r.latency
	i, hit := r.where[block]
	if req.Kind == Prefetch {
		r.stats.PrefetchIssued++
		if hit {
			r.stats.PrefetchHits++
			r.probe.PrefetchRedundant(req.Core)
			return Result{CompleteAt: ready, HitLevel: r.name}
		}
		lr := r.lower.Access(ready, req)
		r.install(now, refLine{block: block, arrival: lr.CompleteAt, core: req.Core, pref: true})
		r.stats.PrefetchFills++
		r.probe.PrefetchFill(req.Core)
		return lr
	}
	r.stats.Accesses++
	if !hit {
		r.stats.Misses++
		lr := r.lower.Access(ready, req)
		r.install(now, refLine{block: block, arrival: lr.CompleteAt, core: req.Core, dirty: req.Kind == Write})
		return lr
	}
	ln := &r.lines[i]
	r.stats.Hits++
	complete := ready
	late := ln.arrival > ready
	if late {
		complete = ln.arrival
		r.stats.LateHits++
	}
	if ln.pref {
		r.stats.UsefulPrefetch++
		if late {
			r.stats.LatePrefetch++
			r.probe.PrefetchUse(ln.core, true, ln.arrival-ready)
		} else {
			r.probe.PrefetchUse(ln.core, false, ready-ln.arrival)
		}
		r.outcomes = append(r.outcomes, refOutcome{ln.core, true})
		ln.pref = false
	}
	if req.Kind == Write {
		ln.dirty = true
	}
	r.touch(i/r.ways, i%r.ways)
	return Result{CompleteAt: complete, HitLevel: r.name}
}

func (r *refCache) writeback(now uint64, addr mem.Addr) {
	block := addr.BlockNumber()
	if i, ok := r.where[block]; ok {
		r.lines[i].dirty = true
		r.touch(i/r.ways, i%r.ways)
		return
	}
	r.install(now, refLine{block: block, arrival: now, dirty: true})
}

func (r *refCache) flush(now uint64) {
	for i := range r.lines {
		if r.lines[i].valid {
			r.evict(now, i)
		}
	}
}

func (r *refCache) resetStats() {
	r.stats = Stats{}
	for i := range r.lines {
		r.lines[i].pref = false
	}
}

// recordingListener records eviction-listener calls in order.
type recordingListener struct{ addrs []mem.Addr }

func (l *recordingListener) OnEviction(a mem.Addr) { l.addrs = append(l.addrs, a) }

// varLower is a fakeLower whose latency varies by block, so fills
// overlap and demand hits meet in-flight lines.
type varLower struct{ fakeLower }

func (v *varLower) Access(now uint64, req Request) Result {
	v.fakeLower.latency = 20 + req.Addr.BlockNumber()%97
	return v.fakeLower.Access(now, req)
}

// TestCacheMatchesReference drives Cache and the reference model with
// the same random demand, write, prefetch, writeback and flush streams
// (plus ResetStats and Contains) at every associativity from 1 to 16
// and 1, 2 and 8 sets. It compares every Result, the Stats after each
// operation, and at the end the eviction-listener order, the outcome and
// probe callbacks, and the requests and writebacks sent below.
func TestCacheMatchesReference(t *testing.T) {
	for ways := 1; ways <= 16; ways++ {
		for _, sets := range []int{1, 2, 8} {
			cfg := Config{Name: "T", SizeBytes: sets * ways * mem.BlockSize, Assoc: ways, HitLatency: 3}
			lower, refLower := &varLower{}, &varLower{}
			c := MustNew(cfg, lower)
			ref := newRefCache(cfg, refLower)
			listener := &recordingListener{}
			probe := &recordingProbe{}
			var outcomes []refOutcome
			c.SetEvictionListener(listener)
			c.SetPrefetchProbe(probe)
			c.SetOutcomeFunc(func(core int, useful bool) { outcomes = append(outcomes, refOutcome{core, useful}) })

			rng := rand.New(rand.NewSource(int64(100*ways + sets)))
			pool := make([]mem.Addr, 2*sets*ways+3)
			for i := range pool {
				block := rng.Uint64() % (1 << 20)
				if i%5 == 0 {
					block = rng.Uint64() % (1 << 30) // high tag bits
				}
				pool[i] = mem.Addr(block<<mem.BlockShift | rng.Uint64()%mem.BlockSize)
			}
			now := uint64(0)
			for op := 0; op < 4000; op++ {
				now += uint64(rng.Intn(30))
				addr := pool[rng.Intn(len(pool))]
				core := rng.Intn(4)
				switch k := rng.Intn(100); {
				case k < 85:
					kind := Demand
					if k >= 45 {
						kind = Write
					}
					if k >= 60 {
						kind = Prefetch
					}
					req := Request{Addr: addr, PC: mem.PC(op), Core: core, Kind: kind}
					got, want := c.Access(now, req), ref.access(now, req)
					if got != want {
						t.Fatalf("%d ways %d sets op %d: %s %#x = %+v, reference %+v", ways, sets, op, kind, addr, got, want)
					}
				case k < 93:
					c.Writeback(now, addr)
					ref.writeback(now, addr)
				case k < 95:
					c.Flush(now)
					ref.flush(now)
				case k < 97:
					c.ResetStats()
					ref.resetStats()
				default:
					_, present := ref.where[addr.BlockNumber()]
					if c.Contains(addr) != present {
						t.Fatalf("%d ways %d sets op %d: Contains(%#x) = %v, reference %v", ways, sets, op, addr, !present, present)
					}
				}
				if c.Stats() != ref.stats {
					t.Fatalf("%d ways %d sets op %d: stats\n got %+v\nwant %+v", ways, sets, op, c.Stats(), ref.stats)
				}
			}
			for _, cmp := range []struct {
				what      string
				got, want any
			}{
				{"eviction listener", listener.addrs, ref.evicted},
				{"outcome callbacks", outcomes, ref.outcomes},
				{"probe callbacks", probe.events, ref.probe.events},
				{"requests below", lower.accesses, refLower.accesses},
				{"writebacks below", lower.writebs, refLower.writebs},
			} {
				if !reflect.DeepEqual(cmp.got, cmp.want) {
					t.Fatalf("%d ways %d sets: %s differ from the reference", ways, sets, cmp.what)
				}
			}
			if len(ref.evicted) == 0 || len(ref.probe.events) == 0 || len(refLower.writebs) == 0 {
				t.Fatalf("%d ways %d sets: stream too weak (%d evictions, %d probe events, %d writebacks)",
					ways, sets, len(ref.evicted), len(ref.probe.events), len(refLower.writebs))
			}
		}
	}
}
