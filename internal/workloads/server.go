package workloads

import (
	"math/rand"

	"bingo/internal/mem"
	"bingo/internal/trace"
)

// Server workload generators. Shared vocabulary:
//   - the heap is addressed in 2 KB regions (32 blocks), matching the
//     spatial-region geometry the prefetchers train on;
//   - "hot" structures are sized to live in the LLC so they produce hits;
//   - "cold" structures dwarf the LLC so they produce the misses whose
//     spatial structure (or lack of it) defines each workload.

const (
	regionBytes  = 2048
	blocksPerReg = regionBytes / mem.BlockSize
)

// ---------------------------------------------------------------------------
// Data Serving — Cassandra/YCSB-like key-value store.
//
// Objects have one of eight fixed layouts (memtable row classes). An object
// read walks a small hot index, then touches the class's field blocks
// inside the object's region. Object popularity is zipfian, so hot objects
// recur (rewarding the long PC+Address event) while the long tail is
// covered only by layout generalisation (the short PC+Offset event) — the
// exact tension Bingo's §III motivates. Layouts additionally depend on one
// address bit (two sub-classes per trigger PC), so PC+Offset alone
// mispredicts part of the time while PC+Address never does.
type dataServing struct {
	filler
	rng     *rand.Rand
	vbase   uint64
	objects uint64
	zipf    *rand.Zipf
	layouts [16][]int // [class*2+parity] -> field block offsets
}

func newDataServing(seed int64, vbase uint64) trace.Source {
	g := &dataServing{
		rng:     newRNG(seed),
		vbase:   vbase,
		objects: 96 * 1024, // 96K regions = 192 MB heap
	}
	g.zipf = zipfOver(g.rng, g.objects)
	layoutRNG := newRNG(seed ^ 0x5eed)
	for i := range g.layouts {
		n := 3 + layoutRNG.Intn(6) // 3..8 field blocks beyond the header
		offs := layoutRNG.Perm(blocksPerReg - 1)[:n]
		for j := range offs {
			offs[j]++ // block 0 is the header/trigger
		}
		g.layouts[i] = offs
	}
	g.fill = g.generate
	return g
}

func (g *dataServing) generate() {
	const (
		pcIndex = 0x1000
		pcTrig  = 0x2000
		pcField = 0x3000
		pcStore = 0x4000
	)
	// Index walk: 3 dependent reads over an LLC-resident 1 MB index
	// (B-tree levels are pointer-chased but almost always hit).
	indexBlocks := uint64(1 << 20 >> mem.BlockShift)
	for i := 0; i < 3; i++ {
		blk := g.rng.Uint64() % indexBlocks
		g.emitDep(pcIndex+uint64(i), g.vbase+(1<<36)+blk<<mem.BlockShift, trace.Load, 22)
	}

	obj := g.zipf.Uint64()
	// Rows are packed at a 37-block stride, so row bases fall at varying
	// offsets within their spatial regions (real heaps are not
	// region-aligned) — trigger offsets span the whole region.
	const objStrideBytes = 37 * mem.BlockSize
	base := g.vbase + obj*objStrideBytes
	class := int(mem.Mix64(obj)) & 7
	parity := int(obj>>3) & 1
	layout := g.layouts[class*2+parity]
	// The accessor is reached from one of 8 call sites (iterator, point
	// query, compaction, …): distinct PCs for the same behaviour, which
	// is what gives the history table its capacity sensitivity.
	callsite := uint64(g.rng.Intn(8))

	// Trigger: the row header, reached by dereferencing the index entry.
	// Row fields are parsed out of the serialised row in order, so each
	// field read depends on the previous one — the serial miss chain that
	// spatial prefetching collapses into parallel row-buffer hits.
	g.emitDep(pcTrig+uint64(class)*256+callsite, base, trace.Load, 18)
	for j, off := range layout {
		g.emitDep(pcField+uint64(class)*256+uint64(j)*8+callsite%8, base+uint64(off)*mem.BlockSize, trace.Load, 14)
	}
	// Occasional update of one field (write-back traffic).
	if g.rng.Intn(10) == 0 {
		off := layout[g.rng.Intn(len(layout))]
		g.emit(pcStore+uint64(class), base+uint64(off)*mem.BlockSize, trace.Store, 12)
	}
	// Row processing: hot re-reads plus compute gap.
	g.emit(pcIndex+8, g.vbase+(1<<36)+(g.rng.Uint64()%indexBlocks)<<mem.BlockShift, trace.Load, 140)
}

// ---------------------------------------------------------------------------
// SAT Solver — Cloud9-like symbolic execution engine.
//
// Dominated by hot variable/watch arrays that live in the cache; misses
// come from sporadic visits to random clauses, which are short (1–2
// blocks), so regions never develop footprints worth generalising. Every
// prefetcher finds little to do here (paper: lowest MPKI, low coverage).
type satSolver struct {
	filler
	rng   *rand.Rand
	vbase uint64
}

func newSATSolver(seed int64, vbase uint64) trace.Source {
	g := &satSolver{rng: newRNG(seed), vbase: vbase}
	g.fill = g.generate
	return g
}

func (g *satSolver) generate() {
	const (
		pcVar    = 0x11000
		pcClause = 0x12000
		pcWatch  = 0x13000
	)
	hotBlocks := uint64(512 << 10 >> mem.BlockShift) // 512 KB variable state
	for i := 0; i < 6; i++ {
		blk := g.rng.Uint64() % hotBlocks
		g.emit(pcVar+uint64(i), g.vbase+blk<<mem.BlockShift, trace.Load, 52)
	}
	if g.rng.Intn(100) < 9 {
		// Random clause in a 64 MB database: 1-2 contiguous blocks.
		clauseBlocks := uint64(64 << 20 >> mem.BlockShift)
		blk := g.rng.Uint64() % clauseBlocks
		addr := g.vbase + (1 << 36) + blk<<mem.BlockShift
		site := uint64(g.rng.Intn(16))
		g.emitDep(pcClause+site*4, addr, trace.Load, 35)
		if g.rng.Intn(2) == 0 {
			g.emit(pcClause+site*4+1, addr+mem.BlockSize, trace.Load, 30)
		}
		// Watch-list update writes back near the clause.
		if g.rng.Intn(4) == 0 {
			g.emit(pcWatch, addr, trace.Store, 25)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming — Darwin-like media server with hundreds of concurrent
// sequential client streams. Each scheduling quantum advances one client
// through its file: dense, in-order, full-region footprints of compulsory
// misses — the best case for spatial prefetching (and for simple stream
// prefetchers).
type streaming struct {
	filler
	rng     *rand.Rand
	vbase   uint64
	pos     []uint64 // per-client next block number
	streams int
}

func newStreaming(seed int64, vbase uint64) trace.Source {
	g := &streaming{rng: newRNG(seed), vbase: vbase, streams: 384}
	g.pos = make([]uint64, g.streams)
	for i := range g.pos {
		// Each client's file starts in its own 64 MB window.
		g.pos[i] = (uint64(i) << 26) >> mem.BlockShift
	}
	g.fill = g.generate
	return g
}

func (g *streaming) generate() {
	const (
		pcRead  = 0x21000
		pcState = 0x22000
	)
	client := g.rng.Intn(g.streams)
	// A quarter of quanta follow a seek (RTP repositioning, keyframe
	// skip): the client jumps ahead one to three regions. Seeks break
	// cross-region stride continuation but leave intra-region footprints
	// fully intact — exactly the structure PPH prefetchers exploit.
	if g.rng.Intn(4) == 0 {
		skip := uint64(1+g.rng.Intn(3)) * (regionBytes >> mem.BlockShift)
		g.pos[client] = (g.pos[client] + skip) &^ (regionBytes>>mem.BlockShift - 1)
	}
	// Protocol work: hot per-client state (LLC resident).
	stateBlocks := uint64(1 << 20 >> mem.BlockShift)
	g.emit(pcState, g.vbase+(1<<36)+(g.rng.Uint64()%stateBlocks)<<mem.BlockShift, trace.Load, 120)
	// Send quantum: 8 media blocks chained through the buffer descriptor
	// list (each packet's payload pointer is read from the previous
	// descriptor), so uncovered stream misses serialise. Scatter-gather
	// I/O touches the quantum's blocks out of order: the set of blocks
	// (the footprint) is stable, the intra-region order is not — the
	// order-insensitivity that favours spatial over delta prefetchers.
	var order [8]int
	perm8(g.rng, &order)
	site := uint64(client) & 7 // per-client send path
	for _, i := range order {
		addr := g.vbase + (g.pos[client]+uint64(i))<<mem.BlockShift
		g.emitDep(pcRead+site, addr, trace.Load, 130)
	}
	g.pos[client] += 8
	g.emit(pcState+1, g.vbase+(1<<36)+(g.rng.Uint64()%stateBlocks)<<mem.BlockShift, trace.Load, 160)
}

// ---------------------------------------------------------------------------
// Zeus — web server whose misses are temporally but not spatially
// correlated (paper §VI-C singles it out as the workload where spatial
// prefetchers gain least). A fixed pseudo-random pointer chain is
// traversed repeatedly: the *sequence* of misses recurs perfectly (a
// temporal prefetcher's dream) but consecutive chain nodes live in
// unrelated regions, so region footprints are sparse and unstable.
//
// The chain is one cycle through a 1 M-block permutation, visited in
// permutation order from its first entry. A run walks only a few
// thousand steps of it, so the generator holds just the visited prefix
// of the permutation and doubles it when the walk reaches its end.
type zeus struct {
	filler
	rng       *rand.Rand
	vbase     uint64
	chainSeed int64
	order     []uint32 // first len(order) blocks of the chain's permutation
	step      int      // index in order of the next block to visit
}

const (
	zeusChainBlocks = 1 << 20 // 64 MB of chained blocks
	zeusPrefix      = 1 << 16 // blocks of the chain built up front
)

func newZeus(seed int64, vbase uint64) trace.Source {
	g := &zeus{rng: newRNG(seed), vbase: vbase, chainSeed: seed ^ 0xC4A1}
	g.order = permPrefix(g.chainSeed, zeusChainBlocks, zeusPrefix)
	g.fill = g.generate
	return g
}

// permPrefix returns the first k entries of
// rand.New(rand.NewSource(seed)).Perm(n), for k <= n < 2^31, without
// building the rest. It replays all n of Perm's Intn(i+1) draws, but
// keeps only positions below k. Perm's inside-out shuffle sets
// m[i] = m[j], m[j] = i with j <= i, so a value only ever moves from a
// lower position to a higher one: once i >= k, a draw can change a kept
// position j < k only by writing i into it.
//
// Intn(i+1) is int31n on the Source, so the draws read the Source
// directly. Past k, the draw is int31n written out in the loop (a call
// per draw there is a large share of the replay; DESIGN.md §3 has the
// numbers) and the store goes to m[min(j, k)]: m[k] is a spare slot
// that absorbs the j >= k draws, which compiles to a conditional move
// instead of a branch taken at random on about one draw in six.
func permPrefix(seed int64, n, k int) []uint32 {
	src := rand.NewSource(seed)
	m := make([]uint32, k+1)
	for i := 0; i < k; i++ {
		j := int31n(src, uint32(i+1))
		m[i] = m[j]
		m[j] = uint32(i)
	}
	for i := k; i < n; i++ {
		bound := uint32(i + 1)
		v := uint32(src.Int63() >> 32)
		if bound&(bound-1) == 0 {
			v &= bound - 1
		} else {
			if v >= 1<<31-bound {
				for t := (1 << 31) % bound; v >= 1<<31-t; {
					v = uint32(src.Int63() >> 32)
				}
			}
			v %= bound
		}
		m[min(v, uint32(k))] = uint32(i)
	}
	return m[:k:k]
}

// int31n returns rand.New(src).Int31n(n) for 0 < n < 2^31, making the
// same src.Int63 calls. Int31n masks a power of two and otherwise
// rejects v >= 2^31 - (2^31 % n) before taking v % n; since 2^31 % n < n,
// no v below 2^31 - n is rejected, and only above it is the remainder
// (a division) worth computing.
func int31n(src rand.Source, n uint32) uint32 {
	v := uint32(src.Int63() >> 32)
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v >= 1<<31-n {
		for t := (1 << 31) % n; v >= 1<<31-t; {
			v = uint32(src.Int63() >> 32)
		}
	}
	return v % n
}

func (g *zeus) generate() {
	const (
		pcConn  = 0x31000
		pcChase = 0x32000
	)
	// Hot connection table and code-like structures.
	hotBlocks := uint64(1 << 20 >> mem.BlockShift)
	for i := 0; i < 3; i++ {
		g.emit(pcConn+uint64(i), g.vbase+(1<<36)+(g.rng.Uint64()%hotBlocks)<<mem.BlockShift, trace.Load, 40)
	}
	// One step of the request-metadata pointer chain, reached from one
	// of eight handler call sites.
	g.emitDep(pcChase+uint64(g.rng.Intn(8)), g.vbase+uint64(g.order[g.step])<<mem.BlockShift, trace.Load, 55)
	g.step++
	if g.step == len(g.order) {
		if len(g.order) == zeusChainBlocks {
			g.step = 0 // the chain closes: its last block links to its first
		} else {
			g.order = permPrefix(g.chainSeed, zeusChainBlocks, 2*len(g.order))
		}
	}
}

// ---------------------------------------------------------------------------
// em3d — electromagnetic wave propagation on a bipartite graph (Table II:
// 400 K nodes, degree 2, span 5, 15% remote). Nodes are 128 B (two
// blocks) laid out sequentially; the solver sweeps all nodes, reading each
// node's two blocks and its two neighbours. Sequential sweep plus nearby
// neighbours produce dense, highly recurrent region footprints — the
// paper's biggest spatial-prefetching win (285% speedup).
type em3d struct {
	filler
	rng   *rand.Rand
	vbase uint64
	node  uint64
	nodes uint64
}

func newEM3D(seed int64, vbase uint64) trace.Source {
	g := &em3d{rng: newRNG(seed), vbase: vbase, nodes: 400_000}
	g.fill = g.generate
	return g
}

func (g *em3d) generate() {
	const (
		pcNode  = 0x41000
		pcNeigh = 0x42000
		pcUpd   = 0x43000
		nodeSz  = 128
		span    = uint64(5 * regionBytes / nodeSz) // "span 5" regions in node units
	)
	base := g.vbase + g.node*nodeSz
	// Read the node's value and coefficient blocks.
	g.emit(pcNode, base, trace.Load, 16)
	g.emitDep(pcNode+1, base+mem.BlockSize, trace.Load, 12)
	// Degree 2: visit both neighbours. The graph is static — each node's
	// edges are a deterministic function of its id — so repeated sweeps
	// dereference the same targets (em3d builds its bipartite graph once).
	// 15% of edges are remote and land on the boundary set (first 8K
	// nodes), which is small enough to stay LLC-resident.
	for d := uint64(0); d < 2; d++ {
		h := mem.Mix64(g.node*2 + d)
		var n uint64
		if h%100 < 15 {
			n = (h >> 8) % 8192
		} else {
			delta := 1 + (h>>8)%span
			if h&(1<<7) == 0 && g.node >= delta {
				n = g.node - delta
			} else {
				n = (g.node + delta) % g.nodes
			}
		}
		g.emitDep(pcNeigh+d, g.vbase+n*nodeSz, trace.Load, 14)
	}
	// Update this node's value.
	g.emit(pcUpd, base, trace.Store, 18)
	g.node = (g.node + 1) % g.nodes
}
