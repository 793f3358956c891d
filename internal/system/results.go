package system

import (
	"fmt"
	"strings"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
	"bingo/internal/telemetry"
)

// CoreResult is the measured outcome for one core.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
	MemStall     uint64
	Loads        uint64
	Stores       uint64
}

// Results is everything a run produced.
type Results struct {
	PrefetcherName  string
	StorageBytes    int
	PerCore         []CoreResult
	L1              []cache.Stats
	LLC             cache.Stats
	DRAM            dram.Stats
	TotalCycles     uint64 // longest per-core measurement interval
	PrefetchDropped uint64 // prefetches dropped by the full prefetch queue
	// WindowInstructions is the total number of instructions retired by
	// all cores over the whole measurement window (cores keep running —
	// and generating cache traffic — until the slowest finishes, so cache
	// and DRAM counters must be normalised by this, not by the per-core
	// snapshot sum).
	WindowInstructions uint64
	// Timeliness is the summed prefetch lifecycle: every predicted
	// address classified as queue-dropped, redundant, or filled, and
	// every fill as timely, late, unused-evicted, or still in flight.
	// Zero-valued for the no-prefetcher baseline.
	Timeliness telemetry.LifecycleStats
}

// coreSnapshot freezes a core's counters — and its private L1's — at the
// cycle it completed its measurement budget. Freezing the L1 alongside
// the CPU stats is what keeps per-core cache numbers consistent with the
// per-core IPC window: reading the L1 live at collect time would fold in
// traffic the core generated after its budget while slower cores drained.
type coreSnapshot struct {
	taken bool
	cycle uint64
	stats cpu.Stats
	l1    cache.Stats
}

func (s *System) collect(start uint64, snaps []coreSnapshot) Results {
	var dropped uint64
	for _, d := range s.pfDropped {
		dropped += d
	}
	r := Results{PrefetcherName: "none", PrefetchDropped: dropped}
	if s.pfs != nil {
		r.PrefetcherName = s.pfs[0].Name()
		r.StorageBytes = s.pfs[0].StorageBytes()
	}
	if s.lc != nil {
		r.Timeliness = s.lc.Totals()
	}
	for i := range s.cores {
		st := snaps[i].stats
		// A core whose trace drained during warm-up takes its snapshot at
		// the measurement start itself; clamp its zero-width interval to
		// one cycle so its IPC is 0, not 0/0.
		cycles := uint64(1)
		if snaps[i].cycle > start {
			cycles = snaps[i].cycle - start
		}
		r.PerCore = append(r.PerCore, CoreResult{
			Instructions: st.Instructions,
			Cycles:       cycles,
			IPC:          float64(st.Instructions) / float64(cycles),
			MemStall:     st.MemStall,
			Loads:        st.Loads,
			Stores:       st.Stores,
		})
		if cycles > r.TotalCycles {
			r.TotalCycles = cycles
		}
		// Per-core L1 stats come from the same freeze frame as the CPU
		// stats, not a live read: by collect time faster cores' L1s have
		// kept counting while the slowest core finished its budget.
		r.L1 = append(r.L1, snaps[i].l1)
		// WindowInstructions deliberately reads live: it normalises the
		// shared LLC/DRAM counters, which also run to the end of the window.
		r.WindowInstructions += s.cores[i].Stats().Instructions
	}
	r.LLC = s.llc.Stats()
	r.DRAM = s.dram.Stats()
	return r
}

// Throughput is the system IPC: the sum of per-core IPCs. Speedups in the
// figures are ratios of this quantity between prefetcher and baseline
// runs of the identical trace.
func (r Results) Throughput() float64 {
	var t float64
	for _, c := range r.PerCore {
		t += c.IPC
	}
	return t
}

// TotalInstructions sums retired instructions across cores.
func (r Results) TotalInstructions() uint64 {
	var t uint64
	for _, c := range r.PerCore {
		t += c.Instructions
	}
	return t
}

// LLCMPKI is LLC demand misses per kilo-instruction across all cores,
// normalised over the whole measurement window.
func (r Results) LLCMPKI() float64 {
	return r.LLC.MPKI(r.WindowInstructions)
}

// Coverage is the fraction of would-be misses eliminated by prefetching,
// computed against this run's own demand stream: useful prefetches over
// (demand misses + useful prefetches). With a deterministic trace this
// equals the paper's "covered misses / baseline misses" to within the
// second-order effect of prefetching perturbing residencies.
func (r Results) Coverage() float64 {
	denom := r.LLC.Misses + r.LLC.UsefulPrefetch
	if denom == 0 {
		return 0
	}
	return float64(r.LLC.UsefulPrefetch) / float64(denom)
}

// CoverageVsBaseline is the paper's Figure 7 metric: the fraction of the
// baseline (no-prefetcher) misses of the identical trace that the
// prefetcher eliminated — computed as miss reduction, which is robust to
// where in the warm-up/measurement window the covering prefetch was
// issued. Clamped to [0, 1] (a polluting prefetcher can increase misses).
func (r Results) CoverageVsBaseline(baselineMisses uint64) float64 {
	if baselineMisses == 0 {
		return 0
	}
	c := 1 - float64(r.LLC.Misses)/float64(baselineMisses)
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c
}

// Overprediction is Figure 7's overprediction metric: prefetched blocks
// never used before eviction, normalised to baseline misses.
func (r Results) Overprediction(baselineMisses uint64) float64 {
	if baselineMisses == 0 {
		return 0
	}
	return float64(r.LLC.UnusedPrefetch) / float64(baselineMisses)
}

// Accuracy is useful prefetches over issued prefetch fills.
func (r Results) Accuracy() float64 {
	if r.LLC.PrefetchFills == 0 {
		return 0
	}
	return float64(r.LLC.UsefulPrefetch) / float64(r.LLC.PrefetchFills)
}

// String renders a compact human-readable summary. The self-relative
// coverage prints as selfcov= — it is computed against this run's own
// demand stream, not the baseline's misses (see Coverage vs
// CoverageVsBaseline); use StringWithBaseline when baseline misses are
// at hand for the paper's figure-7 definition.
func (r Results) String() string {
	return r.render(0)
}

// StringWithBaseline is String plus the baseline-relative coverage and
// overprediction line (the paper's Figure 7 metrics), computed against
// the supplied no-prefetcher miss count for the identical trace.
func (r Results) StringWithBaseline(baselineMisses uint64) string {
	return r.render(baselineMisses)
}

func (r Results) render(baselineMisses uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefetcher=%s storage=%dB\n", r.PrefetcherName, r.StorageBytes)
	for i, c := range r.PerCore {
		fmt.Fprintf(&b, "  core%d: instr=%d cycles=%d ipc=%.3f\n", i, c.Instructions, c.Cycles, c.IPC)
	}
	fmt.Fprintf(&b, "  llc: acc=%d miss=%d mpki=%.2f selfcov=%.1f%% acc(pf)=%.1f%%\n",
		r.LLC.Accesses, r.LLC.Misses, r.LLCMPKI(), r.Coverage()*100, r.Accuracy()*100)
	if baselineMisses > 0 {
		fmt.Fprintf(&b, "  vs-baseline: cov=%.1f%% overpred=%.1f%% (baseline miss=%d)\n",
			r.CoverageVsBaseline(baselineMisses)*100, r.Overprediction(baselineMisses)*100, baselineMisses)
	}
	if t := r.Timeliness; t.Issued > 0 {
		fmt.Fprintf(&b, "  pf: issued=%d fills=%d timely=%.1f%% late=%.1f%% unused=%.1f%% dropped=%d\n",
			t.Issued, t.Fills, t.TimelyFraction()*100, t.LateFraction()*100, t.UnusedFraction()*100, t.QueueDropped)
	}
	fmt.Fprintf(&b, "  dram: reads=%d writes=%d rowhit=%.1f%%\n",
		r.DRAM.Reads, r.DRAM.Writes, r.DRAM.RowHitRate()*100)
	return b.String()
}
