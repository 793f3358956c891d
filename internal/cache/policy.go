package cache

import "math/rand"

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least-recently-touched way (the paper's baseline).
	LRU PolicyKind = iota
	// RandomRepl evicts a pseudo-random way; used in ablations.
	RandomRepl
	// TreePLRU is the tree pseudo-LRU hardware approximation: one bit per
	// internal node of a binary tree over the ways. Requires power-of-two
	// associativity.
	TreePLRU
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case RandomRepl:
		return "random"
	case TreePLRU:
		return "tree-plru"
	default:
		return "lru"
	}
}

// Policy decides victims within a set. Implementations are created per
// cache instance and are not safe for concurrent use.
type Policy interface {
	// Touch records a reference to (set, way).
	Touch(set, way int)
	// Victim returns the way to evict from set.
	Victim(set int) int
}

func newPolicy(kind PolicyKind, sets, assoc int) Policy {
	switch kind {
	case RandomRepl:
		return &randomPolicy{assoc: assoc, rng: rand.New(rand.NewSource(1))}
	case TreePLRU:
		if assoc&(assoc-1) == 0 && assoc > 1 {
			return newTreePLRU(sets, assoc)
		}
		return newLRUPolicy(sets, assoc) // non-pow2 ways: fall back
	default:
		return newLRUPolicy(sets, assoc)
	}
}

// lruPolicy keeps a global reference clock and a per-line timestamp.
type lruPolicy struct {
	assoc int
	clock uint64
	last  []uint64 // sets*assoc timestamps
}

func newLRUPolicy(sets, assoc int) *lruPolicy {
	return &lruPolicy{assoc: assoc, last: make([]uint64, sets*assoc)}
}

func (p *lruPolicy) Touch(set, way int) {
	p.clock++
	p.last[set*p.assoc+way] = p.clock
}

func (p *lruPolicy) Victim(set int) int {
	base := set * p.assoc
	best, bestTime := 0, p.last[base]
	for w := 1; w < p.assoc; w++ {
		if t := p.last[base+w]; t < bestTime {
			best, bestTime = w, t
		}
	}
	return best
}

type randomPolicy struct {
	assoc int
	rng   *rand.Rand
	// draws counts Victim calls. The RNG stream is deterministic from its
	// fixed seed, so a checkpoint stores only this cursor and restore
	// replays the stream to reposition it (see LoadState in checkpoint.go).
	draws uint64
}

func (p *randomPolicy) Touch(int, int) {}

func (p *randomPolicy) Victim(int) int {
	p.draws++
	return p.rng.Intn(p.assoc)
}

// treePLRU keeps assoc-1 direction bits per set, arranged as an implicit
// binary tree: node i's children are 2i+1 and 2i+2; a bit of 0 means the
// PLRU victim lies in the left subtree. Touching a way flips the bits on
// its root path to point away from it.
type treePLRU struct {
	assoc  int
	levels int
	bits   [][]bool // per set: assoc-1 node bits
}

func newTreePLRU(sets, assoc int) *treePLRU {
	levels := 0
	for 1<<levels < assoc {
		levels++
	}
	p := &treePLRU{assoc: assoc, levels: levels, bits: make([][]bool, sets)}
	for i := range p.bits {
		p.bits[i] = make([]bool, assoc-1)
	}
	return p
}

func (p *treePLRU) Touch(set, way int) {
	bits := p.bits[set]
	node := 0
	for level := p.levels - 1; level >= 0; level-- {
		right := way>>uint(level)&1 == 1
		// Point the victim pointer at the *other* subtree.
		bits[node] = !right
		if right {
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
}

func (p *treePLRU) Victim(set int) int {
	bits := p.bits[set]
	node, way := 0, 0
	for level := 0; level < p.levels; level++ {
		if bits[node] {
			way = way<<1 | 1
			node = 2*node + 2
		} else {
			way <<= 1
			node = 2*node + 1
		}
	}
	return way
}
