// Package system assembles cores, private L1 data caches, the shared LLC,
// DRAM, address translation, and per-core prefetchers into the simulated
// machine of the paper's Table I, and runs the simulation loop that
// produces per-core IPC and memory-system statistics. The loop has two
// byte-identical engines (engine.go): the default runs each core ahead
// between memory operations and orders only those, and lockstep ticking
// of every cycle is kept as the reference the differential oracles
// compare it to.
package system

import (
	"fmt"

	"bingo/internal/cache"
	"bingo/internal/cpu"
	"bingo/internal/dram"
	"bingo/internal/vm"
)

// Config describes the whole simulated machine.
type Config struct {
	NumCores int
	Core     cpu.Config
	L1       cache.Config
	LLC      cache.Config
	DRAM     dram.Config
	// MemoryBytes sizes physical memory for the translator.
	MemoryBytes uint64
	// PageBytes is the OS page size for translation (4 KB in the paper).
	PageBytes uint64
	// Seed drives the random first-touch translation (and nothing else;
	// workload generators carry their own seeds).
	Seed int64
	// WarmupInstr / MeasureInstr are per-core instruction budgets. After
	// each core retires WarmupInstr, statistics are reset and measurement
	// runs until MeasureInstr more retire (or the trace ends).
	WarmupInstr  uint64
	MeasureInstr uint64
	// PrefetchQueue caps in-flight prefetches per core; predictions beyond
	// it are dropped, bounding the bandwidth an inaccurate prefetcher can
	// burn (hardware prefetch-queue semantics).
	PrefetchQueue int
	// PrefetchAt selects where prefetchers attach. The paper's choice is
	// the LLC (§V-B: long region residency lets footprints be observed
	// completely); AttachL1 exists for the attach-level ablation.
	PrefetchAt AttachLevel
}

// AttachLevel selects the cache level prefetchers observe and fill.
type AttachLevel int

const (
	// AttachLLC is the paper's configuration.
	AttachLLC AttachLevel = iota
	// AttachL1 observes each core's L1 accesses and fills into the L1.
	AttachL1
)

// String names the attach level.
func (l AttachLevel) String() string {
	if l == AttachL1 {
		return "L1"
	}
	return "LLC"
}

// DefaultConfig reproduces Table I: four 4-wide OoO cores with 256-entry
// ROBs and 64-entry LSQs, 64 KB 8-way L1D (4-cycle), 8 MB 16-way shared
// LLC (15-cycle), two DRAM channels at 37.5 GB/s and 60 ns zero-load
// latency, 4 KB OS pages with random first-touch translation.
func DefaultConfig() Config {
	return Config{
		NumCores: 4,
		Core:     cpu.DefaultConfig(),
		L1: cache.Config{
			Name:       "L1",
			SizeBytes:  64 * 1024,
			Assoc:      8,
			HitLatency: 4,
		},
		LLC: cache.Config{
			Name:       "LLC",
			SizeBytes:  8 * 1024 * 1024,
			Assoc:      16,
			HitLatency: 15,
		},
		DRAM:          dram.Default4GHz(),
		MemoryBytes:   4 << 30,
		PageBytes:     vm.DefaultPageSize,
		Seed:          42,
		WarmupInstr:   1_500_000,
		MeasureInstr:  1_500_000,
		PrefetchQueue: 64,
	}
}

// MaxCores is the largest machine the simulator builds: the biggest
// point of the core-scaling sweep. WithCores scales the LLC with the core
// count, so an unbounded count would exhaust host memory.
const MaxCores = 64

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumCores <= 0 {
		return fmt.Errorf("system: core count must be positive")
	}
	if c.NumCores > MaxCores {
		return fmt.Errorf("system: %d cores exceeds the maximum of %d", c.NumCores, MaxCores)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.LLC.Validate(); err != nil {
		return err
	}
	// A prefetcher's AccessEvent.Hit is read off the name of the level
	// that answered (see issuePrefetches), so the LLC's name must differ
	// from main memory's and from every L1's.
	if c.LLC.Name == "" || c.LLC.Name == cache.MemoryName {
		return fmt.Errorf("system: LLC name %q is empty or names main memory", c.LLC.Name)
	}
	for i := 0; i < c.NumCores; i++ {
		if c.LLC.Name == l1Name(i) {
			return fmt.Errorf("system: LLC name %q is also core %d's L1 name", c.LLC.Name, i)
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.MeasureInstr == 0 {
		return fmt.Errorf("system: measurement instruction budget must be positive")
	}
	if c.PrefetchQueue <= 0 {
		return fmt.Errorf("system: prefetch queue size must be positive")
	}
	return nil
}

// Scaled returns a copy with per-core instruction budgets scaled by f,
// used by fast test/bench configurations.
func (c Config) Scaled(warmup, measure uint64) Config {
	c.WarmupInstr = warmup
	c.MeasureInstr = measure
	return c
}

// WithCores returns a copy of c resized to n cores with the shared
// resources scaled the way Table I would extrapolate: the LLC keeps
// 2 MB per core (8 MB at the paper's 4), DRAM channel count doubles
// with each doubling of cores past the baseline pair so per-core
// bandwidth stays constant (channel counts must remain powers of two),
// and physical memory keeps 1 GB per core so the random first-touch
// translator never runs out of real frames. Per-core structures (L1,
// ROB/LSQ, prefetch queue) are per-core already and stay untouched.
// WithCores(4) equals DefaultConfig — the scaling is anchored there.
// n must be a power of two: the LLC's set count scales with n and the
// cache requires a power-of-two set count, so any other n yields a
// config that fails at system construction.
func (c Config) WithCores(n int) Config {
	c.NumCores = n
	c.LLC.SizeBytes = n * 2 * 1024 * 1024
	channels := 2
	for channels*2 <= n/2 {
		channels *= 2
	}
	c.DRAM.Channels = channels
	c.MemoryBytes = uint64(n) << 30
	return c
}
