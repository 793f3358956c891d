package workloads

import (
	"math/rand"
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
	// blocks follows, since a permutation visits each block once.
	for _, seed := range []int64{1, 2} {
		chainSeed := seed ^ 0xC4A1
		perm := rand.New(rand.NewSource(chainSeed)).Perm(zeusChainBlocks)
		for _, k := range []int{1, 1000, zeusPrefix, zeusChainBlocks} {
			got := permPrefix(chainSeed, zeusChainBlocks, k)
			if len(got) != k {
				t.Fatalf("seed %d k %d: prefix has %d entries", seed, k, len(got))
			}
			for i, v := range got {
				if int(v) != perm[i] {
					t.Fatalf("seed %d k %d: prefix[%d] = %d, Perm gives %d", seed, k, i, v, perm[i])
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
