package workloads

import (
	"math/rand"
	"slices"
	"testing"

	"bingo/internal/mem"
	"bingo/internal/trace"
)

func TestAllWorkloadsPresent(t *testing.T) {
	specs := All()
	if len(specs) != 10 {
		t.Fatalf("want the paper's 10 workloads, got %d", len(specs))
	}
	wantOrder := []string{"DataServing", "SATSolver", "Streaming", "Zeus", "em3d",
		"Mix1", "Mix2", "Mix3", "Mix4", "Mix5"}
	for i, name := range wantOrder {
		if specs[i].Name != name {
			t.Errorf("workload %d = %s, want %s", i, specs[i].Name, name)
		}
		if specs[i].PaperMPKI <= 0 {
			t.Errorf("%s missing paper MPKI", name)
		}
		if specs[i].Description == "" {
			t.Errorf("%s missing description", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("em3d"); !ok {
		t.Fatal("em3d should exist")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown workload should not resolve")
	}
	if len(Names()) != 10 {
		t.Fatal("Names should list all workloads")
	}
}

func TestSourcesPerCore(t *testing.T) {
	for _, spec := range All() {
		sources := spec.Sources(4, 1)
		if len(sources) != 4 {
			t.Fatalf("%s: %d sources for 4 cores", spec.Name, len(sources))
		}
		for core, src := range sources {
			for i := 0; i < 100; i++ {
				rec, ok := src.Next()
				if !ok {
					t.Fatalf("%s core %d: source ended at %d", spec.Name, core, i)
				}
				if rec.PC == 0 {
					t.Fatalf("%s core %d: zero PC", spec.Name, core)
				}
				if rec.Addr == 0 {
					t.Fatalf("%s core %d: zero address", spec.Name, core)
				}
			}
		}
	}
}

func TestAddressSpacesDisjointAcrossCores(t *testing.T) {
	for _, spec := range All() {
		sources := spec.Sources(2, 1)
		seen := map[int]map[uint64]bool{0: {}, 1: {}}
		for core, src := range sources {
			for i := 0; i < 500; i++ {
				rec, _ := src.Next()
				seen[core][uint64(rec.Addr)>>40] = true
			}
		}
		for top := range seen[0] {
			if seen[1][top] {
				t.Fatalf("%s: cores share the top-of-address-space window %d", spec.Name, top)
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	for _, spec := range All() {
		a := spec.Sources(1, 5)[0]
		b := spec.Sources(1, 5)[0]
		for i := 0; i < 200; i++ {
			ra, _ := a.Next()
			rb, _ := b.Next()
			if ra != rb {
				t.Fatalf("%s: same seed diverged at record %d", spec.Name, i)
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	spec, _ := ByName("DataServing")
	a := spec.Sources(1, 1)[0]
	b := spec.Sources(1, 2)[0]
	same := 0
	for i := 0; i < 200; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra.Addr == rb.Addr {
			same++
		}
	}
	if same > 150 {
		t.Fatalf("different seeds produced %d/200 identical addresses", same)
	}
}

func TestKernelRegistry(t *testing.T) {
	names := SpecKernelNames()
	if len(names) != 12 {
		t.Fatalf("want 12 SPEC kernels, got %d: %v", len(names), names)
	}
	for _, name := range names {
		src, ok := KernelByName(name, 1, 0)
		if !ok {
			t.Fatalf("kernel %s not buildable", name)
		}
		for i := 0; i < 50; i++ {
			if _, ok := src.Next(); !ok {
				t.Fatalf("kernel %s ended at %d", name, i)
			}
		}
	}
	if _, ok := KernelByName("nope", 1, 0); ok {
		t.Fatal("unknown kernel should not resolve")
	}
}

func TestMixesUseDistinctKernels(t *testing.T) {
	mix, _ := ByName("Mix1")
	sources := mix.Sources(4, 1)
	// Distinct kernels use distinct PC bases; sample each core's PCs.
	bases := map[uint64]bool{}
	for _, src := range sources {
		rec, _ := src.Next()
		bases[uint64(rec.PC)&^0xfff] = true
	}
	if len(bases) < 3 {
		t.Fatalf("Mix1 cores look too similar: %d PC bases", len(bases))
	}
}

func TestDependentLoadsExist(t *testing.T) {
	// The server workloads must contain dependent accesses — that is
	// what makes them latency-bound.
	for _, name := range []string{"DataServing", "Zeus", "em3d", "Streaming"} {
		spec, _ := ByName(name)
		src := spec.Sources(1, 1)[0]
		deps := 0
		for i := 0; i < 1000; i++ {
			rec, _ := src.Next()
			if rec.Dep {
				deps++
			}
		}
		if deps == 0 {
			t.Errorf("%s has no dependent loads", name)
		}
	}
}

func TestStoresExist(t *testing.T) {
	for _, name := range []string{"DataServing", "em3d", "Mix1"} {
		spec, _ := ByName(name)
		src := spec.Sources(1, 1)[0]
		stores := 0
		for i := 0; i < 2000; i++ {
			rec, _ := src.Next()
			if rec.Kind == trace.Store {
				stores++
			}
		}
		if stores == 0 {
			t.Errorf("%s has no stores", name)
		}
	}
}

func TestZeusPrefixMatchesPerm(t *testing.T) {
	// The visit order must be exactly a prefix of the permutation the
	// chain is defined by; that the chain is a single cycle through all
	// blocks follows, since a permutation visits each block once. The
	// chain seeds are those perCore hands newZeus on a 4-core machine,
	// and 2*zeusPrefix is the walk's first doubling.
	for _, seed := range []int64{1, 2} {
		for core := int64(0); core < 4; core++ {
			chainSeed := (seed + 7919*core) ^ 0xC4A1
			perm := rand.New(rand.NewSource(chainSeed)).Perm(zeusChainBlocks)
			for _, k := range []int{1, 1000, zeusPrefix, 2 * zeusPrefix, zeusChainBlocks} {
				got := permPrefix(chainSeed, zeusChainBlocks, k)
				if len(got) != k || cap(got) != k {
					t.Fatalf("chain seed %d k %d: prefix has len %d cap %d", chainSeed, k, len(got), cap(got))
				}
				for i, v := range got {
					if int(v) != perm[i] {
						t.Fatalf("chain seed %d k %d: prefix[%d] = %d, Perm gives %d", chainSeed, k, i, v, perm[i])
					}
				}
			}
		}
	}
}

func TestPermPrefixSmall(t *testing.T) {
	// Every prefix length of short permutations: k = 0, k = n (no draw
	// past k) and the draws at powers of two, where Int31n masks.
	for n := 1; n <= 40; n++ {
		perm := rand.New(rand.NewSource(int64(n))).Perm(n)
		for k := 0; k <= n; k++ {
			got := permPrefix(int64(n), n, k)
			if len(got) != k {
				t.Fatalf("n %d k %d: prefix has %d entries", n, k, len(got))
			}
			for i, v := range got {
				if int(v) != perm[i] {
					t.Fatalf("n %d k %d: prefix[%d] = %d, Perm gives %d", n, k, i, v, perm[i])
				}
			}
		}
	}
}

// countingSource counts the Int63 calls made on a Source.
type countingSource struct {
	rand.Source
	calls int
}

func (c *countingSource) Int63() int64 {
	c.calls++
	return c.Source.Int63()
}

// int31nBounds are the bounds int31n is checked at: the smallest, powers
// of two (masked, never rejected) and their neighbours, Zeus's chain
// length, and bounds far enough above 2^30 that v >= 2^31 - n, the only
// range where a draw can be rejected, comes up within a few draws.
var int31nBounds = []uint32{
	1, 2, 3, 4, 5, 7, 8, 9, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 20, 1<<20 + 1,
	1<<30 - 1, 1 << 30, 1<<30 + 1, 3<<29 + 1, 1<<31 - 3, 1<<31 - 1,
}

func TestInt31nMatchesStdlib(t *testing.T) {
	// int31n against rand.Int31n on two sources from one seed: each
	// result, and the next Int63 of both sources after each draw, so
	// the rejection loop's extra calls keep the states in step.
	// 2^30+1 and 3*2^29+1 reject about half and a quarter of draws.
	const draws = 2000
	for _, n := range int31nBounds {
		for _, seed := range []int64{1, 0xC4A1} {
			got := &countingSource{Source: rand.NewSource(seed)}
			std := rand.NewSource(seed)
			r := rand.New(std)
			rejected := 0
			for d := 0; d < draws; d++ {
				before := got.calls
				g, w := int31n(got, n), r.Int31n(int32(n))
				if int32(g) != w {
					t.Fatalf("n %d seed %d draw %d: int31n = %d, Int31n = %d", n, seed, d, g, w)
				}
				if a, b := got.Int63(), std.Int63(); a != b {
					t.Fatalf("n %d seed %d draw %d: sources out of step: next Int63 %d, want %d", n, seed, d, a, b)
				}
				if got.calls-before > 2 {
					rejected++
				}
			}
			if (n == 1<<30+1 || n == 3<<29+1) && rejected == 0 {
				t.Errorf("n %d seed %d: no draw rejected in %d", n, seed, draws)
			}
		}
	}
}

// scriptSource returns Int31 values from a script, in order.
type scriptSource struct {
	v31 []uint32
	i   int
}

func (s *scriptSource) Int63() int64 {
	v := int64(s.v31[s.i%len(s.v31)])<<32 | 0x5a5a5a5a
	s.i++
	return v
}

func (*scriptSource) Seed(int64) {}

func TestInt31nRejectionEdges(t *testing.T) {
	// Random draws land on a rejection threshold about once in 2^31, so
	// script the values either side of both: 2^31 - n, below which no
	// draw is rejected, and 2^31 - (2^31 % n), from which every draw is.
	for _, n := range int31nBounds {
		rem := (1 << 31) % n
		var script []uint32
		for _, edge := range []uint32{1<<31 - n, 1<<31 - rem} {
			for _, v := range []uint32{edge - 1, edge, edge + 1} {
				if v < 1<<31 { // Int31's range; a power of two has no rem edge
					script = append(script, v)
				}
			}
		}
		// 0 is never rejected, so no draw rejects the whole script.
		script = append(script, 0, 1<<31-1, n-1, n)
		for first := range script {
			// Start at each value, so each one is drawn first and, if
			// rejected, followed by each other.
			rolled := append(slices.Clone(script[first:]), script[:first]...)
			got, want := &scriptSource{v31: rolled}, &scriptSource{v31: rolled}
			for d := 0; d < len(script); d++ {
				g, w := int31n(got, n), rand.New(want).Int31n(int32(n))
				if int32(g) != w || got.i != want.i {
					t.Fatalf("n %d script %v draw %d: int31n = %d after %d Int63 calls, Int31n = %d after %d",
						n, rolled, d, g, got.i, w, want.i)
				}
			}
		}
	}
}

func TestZeusFollowsSuccessorChain(t *testing.T) {
	// Reference: the successor-array chain walked from perm[0]. Walk
	// once round the whole cycle and on, so every prefix doubling and
	// the wrap from the last block back to the first are covered.
	const steps = zeusChainBlocks + 1000
	perm := rand.New(rand.NewSource(1 ^ 0xC4A1)).Perm(zeusChainBlocks)
	chain := make([]uint32, zeusChainBlocks)
	for i := range perm {
		chain[perm[i]] = uint32(perm[(i+1)%zeusChainBlocks])
	}
	g := newZeus(1, 0)
	cur := uint32(perm[0])
	for step := 0; step < steps; {
		rec, _ := g.Next()
		if rec.PC < 0x32000 || rec.PC > 0x32007 {
			continue
		}
		if want := mem.Addr(uint64(cur) << mem.BlockShift); rec.Addr != want {
			t.Fatalf("chase step %d loads %v, successor chain gives %v", step, rec.Addr, want)
		}
		cur = chain[cur]
		step++
	}
}

func TestEM3DNeighboursRespectSpan(t *testing.T) {
	g := newEM3D(1, 1<<40).(*em3d)
	for i := 0; i < 5000; i++ {
		rec, _ := g.Next()
		_ = rec
	}
	// Smoke property: generator stays within its node array (plus the
	// vbase window) — addresses must fall below vbase + nodes*128 + slack.
	limit := uint64(1<<40) + g.nodes*128 + 4096
	g2 := newEM3D(2, 1<<40).(*em3d)
	for i := 0; i < 5000; i++ {
		rec, _ := g2.Next()
		if uint64(rec.Addr) >= limit {
			t.Fatalf("em3d address %v outside the node array", rec.Addr)
		}
	}
}

// TestPerm8MatchesRandPerm pins that perm8 draws what rand.Perm(8) draws
// from the same generator state and consumes the same random numbers,
// so the Streaming trace is unchanged by drawing in place.
func TestPerm8MatchesRandPerm(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	var p [8]int
	for n := 0; n < 10_000; n++ {
		want := a.Perm(8)
		perm8(b, &p)
		if !slices.Equal(p[:], want) {
			t.Fatalf("draw %d: perm8 = %v, rand.Perm(8) = %v", n, p, want)
		}
		// Interleave other draws, as the generator does.
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: generators diverged (%d vs %d)", n, x, y)
		}
	}
}
