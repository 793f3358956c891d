// Package workloads provides deterministic synthetic trace generators that
// stand in for the paper's proprietary server checkpoints (Cassandra/YCSB
// Data Serving, Cloud9 SAT Solver, Darwin Streaming, Zeus web server,
// em3d) and its SPEC CPU2006 mixes. Each generator reproduces the *memory
// behaviour class* the paper's analysis leans on — the distribution of
// per-region footprints conditioned on trigger events, the ratio of
// spatially- to temporally-correlated accesses, and relative memory
// intensity — so that the prefetcher ranking and crossover shape of the
// evaluation carries over even though absolute IPCs do not.
//
// All generators are seeded and produce unbounded streams; the simulator
// bounds runs by instruction budget. Per-core streams use disjoint
// virtual address spaces (cores do not share data; prefetchers are
// per-core in the paper, so sharing is not load-bearing).
//
// Concurrency: Spec.Sources and every generator constructor may be
// called from any number of goroutines — the parallel experiment engine
// materialises traces for many simulations at once. Each generator owns
// its RNG (math/rand.Rand seeded per instance; the package never touches
// the global rand source) and its emit queue, so two concurrently
// running simulations of the same workload share no mutable state and
// produce bit-identical streams for equal (seed, core) pairs.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"bingo/internal/mem"
	"bingo/internal/trace"
)

// Spec is one named workload of Table II.
type Spec struct {
	// Name matches the paper's Table II row.
	Name string
	// Description summarises what the generator models.
	Description string
	// PaperMPKI is the LLC MPKI the paper reports (Table II), recorded
	// for the EXPERIMENTS.md comparison.
	PaperMPKI float64
	// Sources builds one trace source per core.
	Sources func(cores int, seed int64) []trace.Source
}

// All returns the ten workloads in the paper's Table II order.
func All() []Spec {
	return []Spec{
		{
			Name:        "DataServing",
			Description: "Cassandra-like KV store: zipfian object reads with per-class fixed layouts over a large heap plus an index walk",
			PaperMPKI:   6.7,
			Sources:     perCore(newDataServing),
		},
		{
			Name:        "SATSolver",
			Description: "Cloud9-like symbolic execution: hot variable arrays with occasional short random clause visits (low MPKI, little spatial reuse)",
			PaperMPKI:   1.7,
			Sources:     perCore(newSATSolver),
		},
		{
			Name:        "Streaming",
			Description: "Darwin-like media server: hundreds of concurrent sequential client streams (dense full-region footprints, heavy compulsory misses)",
			PaperMPKI:   3.9,
			Sources:     perCore(newStreaming),
		},
		{
			Name:        "Zeus",
			Description: "Zeus-like web server: temporally correlated pointer chains with spatially inconsistent region footprints",
			PaperMPKI:   5.2,
			Sources:     perCore(newZeus),
		},
		{
			Name:        "em3d",
			Description: "em3d graph kernel: 400K-node degree-2 traversal over a regular node layout, 15% remote neighbours",
			PaperMPKI:   32.4,
			Sources:     perCore(newEM3D),
		},
		mixSpec("Mix1", 15.7, "lbm", "omnetpp", "soplex", "sphinx3"),
		mixSpec("Mix2", 12.5, "lbm", "libquantum", "sphinx3", "zeusmp"),
		mixSpec("Mix3", 12.7, "milc", "omnetpp", "perlbench", "soplex"),
		mixSpec("Mix4", 14.7, "astar", "omnetpp", "soplex", "tonto"),
		mixSpec("Mix5", 12.6, "GemsFDTD", "gromacs", "omnetpp", "soplex"),
	}
}

// ByName finds a workload spec by its Table II name (case-sensitive).
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists workload names in Table II order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// perCore runs the same generator on every core with decorrelated seeds
// and disjoint address spaces (server workloads). Each core's generator
// is built in its own goroutine: generators share nothing, so the
// streams are those of a sequential build, and Zeus's chain replays
// (most of a Zeus build) run on every host CPU.
func perCore(build func(seed int64, vbase uint64) trace.Source) func(int, int64) []trace.Source {
	return func(cores int, seed int64) []trace.Source {
		out := make([]trace.Source, cores)
		var wg sync.WaitGroup
		for i := 0; i < cores; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = build(seed+int64(i)*7919, coreVBase(i))
			}(i)
		}
		wg.Wait()
		return out
	}
}

// wrapPhaseSkip is the per-wrap stagger applied when a machine has more
// cores than a mix lists kernels: the j-th rerun of a kernel starts
// j*wrapPhaseSkip records into its stream.
const wrapPhaseSkip = 2048

// mixSpec builds a 4-core SPEC mix: core i runs kernel i, wrapping if a
// system has more cores than the mix lists. Seeds are decorrelated per
// core (i*104729) and every core owns a disjoint virtual base — but the
// streaming kernels (the multiStream family) are seed-insensitive by
// construction, their access pattern being the benchmark itself, so a
// wrapped core would otherwise emit a cycle-exact clone of its partner.
// Each wrap is therefore phase-shifted by draining a deterministic
// prefix: two instances of the same kernel then run staggered, the way
// a real multiprogrammed machine would interleave them. Cores below
// len(kernels) skip nothing, so 4-core mixes are bit-identical to the
// unwrapped behaviour.
func mixSpec(name string, paperMPKI float64, kernels ...string) Spec {
	return Spec{
		Name:        name,
		Description: fmt.Sprintf("SPEC-like mix: %v", kernels),
		PaperMPKI:   paperMPKI,
		Sources: func(cores int, seed int64) []trace.Source {
			out := make([]trace.Source, cores)
			for i := 0; i < cores; i++ {
				k := kernels[i%len(kernels)]
				build, ok := specKernels[k]
				if !ok {
					panic(fmt.Sprintf("workloads: unknown SPEC kernel %q", k))
				}
				src := build(seed+int64(i)*104729, coreVBase(i))
				for skip := (i / len(kernels)) * wrapPhaseSkip; skip > 0; skip-- {
					src.Next()
				}
				out[i] = src
			}
			return out
		},
	}
}

// SpecKernelNames lists the available SPEC-like kernels sorted by name.
func SpecKernelNames() []string {
	out := make([]string, 0, len(specKernels))
	for k := range specKernels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KernelByName builds a single SPEC-like kernel source (for tools/tests).
func KernelByName(name string, seed int64, core int) (trace.Source, bool) {
	build, ok := specKernels[name]
	if !ok {
		return nil, false
	}
	return build(seed, coreVBase(core)), true
}

// coreVBase separates per-core virtual address spaces.
func coreVBase(core int) uint64 { return uint64(core+1) << 40 }

// queue is the emit/pop base embedded by every generator.
type queue struct {
	buf  []trace.Record
	head int
}

func (q *queue) emit(pc uint64, addr uint64, kind trace.Kind, gap uint32) {
	q.buf = append(q.buf, trace.Record{
		PC:     mem.PC(pc),
		Addr:   mem.Addr(addr),
		Kind:   kind,
		NonMem: gap,
	})
}

// emitDep emits an address-dependent access: the core will not issue it
// until the most recent load completes (pointer dereference).
func (q *queue) emitDep(pc uint64, addr uint64, kind trace.Kind, gap uint32) {
	q.buf = append(q.buf, trace.Record{
		PC:     mem.PC(pc),
		Addr:   mem.Addr(addr),
		Kind:   kind,
		NonMem: gap,
		Dep:    true,
	})
}

func (q *queue) pop() (trace.Record, bool) {
	if q.head >= len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
		return trace.Record{}, false
	}
	r := q.buf[q.head]
	q.head++
	return r, true
}

// filler runs a generator's fill function until a record is available.
type filler struct {
	queue
	fill func()
}

// Next implements trace.Source.
func (f *filler) Next() (trace.Record, bool) {
	for {
		if r, ok := f.pop(); ok {
			return r, true
		}
		f.fill()
	}
}

// newRNG builds the deterministic per-generator random source.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// perm8 fills p with a pseudo-random permutation of 0..7 without
// allocating. It makes exactly the Intn calls rng.Perm(8) makes, in the
// same order, so it draws the same permutation and leaves rng in the
// same state.
func perm8(rng *rand.Rand, p *[8]int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// zipfOver returns a zipfian sampler over [0, n).
func zipfOver(rng *rand.Rand, n uint64) *rand.Zipf {
	return rand.NewZipf(rng, 1.2, 1, n-1)
}
