package core

import (
	"testing"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

func smallBingoConfig() Config {
	cfg := DefaultConfig()
	cfg.FilterEntries = 16
	cfg.AccumEntries = 32
	cfg.TrackerWays = 4
	cfg.HistoryEntries = 256
	cfg.HistoryWays = 4
	return cfg
}

func access(pc mem.PC, a mem.Addr) prefetch.AccessEvent {
	return prefetch.AccessEvent{PC: pc, Addr: a}
}

// trainRegion walks Bingo through one full residency of a region: trigger,
// extra blocks, then eviction-driven training.
func trainRegion(b *Bingo, pc mem.PC, region uint64, blocks []int) {
	for i, blk := range blocks {
		p := pc
		if i > 0 {
			p = pc + mem.PC(i)
		}
		b.OnAccess(access(p, blockAddr(region, blk)))
	}
	b.OnEviction(blockAddr(region, blocks[0]))
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.RegionBytes = 3000
	if cfg.Validate() == nil {
		t.Error("bad region size should fail")
	}
	cfg = DefaultConfig()
	cfg.RegionBytes = 8192 // 128 blocks > 64-bit footprint
	if cfg.Validate() == nil {
		t.Error("oversized region should fail")
	}
	cfg = DefaultConfig()
	cfg.VoteThreshold = 0
	if cfg.Validate() == nil {
		t.Error("bad vote threshold should fail")
	}
	// Table geometry: Validate must reject every size New rejects, so a
	// caller can check a configuration without allocating its tables.
	for _, bad := range []func(*Config){
		func(c *Config) { c.HistoryEntries = 48 }, // 3 sets
		func(c *Config) { c.HistoryEntries = 8 },  // fewer entries than ways
		func(c *Config) { c.HistoryWays = 0 },
		func(c *Config) { c.FilterEntries = 48 }, // 3 sets
		func(c *Config) { c.AccumEntries = 8 },   // fewer entries than ways
		func(c *Config) { c.TrackerWays = -1 },
	} {
		cfg = DefaultConfig()
		bad(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %+v", cfg)
		}
	}
}

func TestTrainThenPrefetchSameRegion(t *testing.T) {
	b := MustNew(smallBingoConfig())
	trainRegion(b, 0x400, 7, []int{2, 5, 9})

	// Re-trigger the SAME region with the same PC at the same block:
	// PC+Address matches and the learned blocks are prefetched.
	addrs := b.OnAccess(access(0x400, blockAddr(7, 2)))
	if len(addrs) != 2 {
		t.Fatalf("prefetches = %v", addrs)
	}
	want := map[mem.Addr]bool{blockAddr(7, 5): true, blockAddr(7, 9): true}
	for _, a := range addrs {
		if !want[a] {
			t.Errorf("unexpected prefetch %v", a)
		}
	}
	st := b.Stats()
	if st.LongMatches != 1 {
		t.Fatalf("stats = %+v (expected a long match)", st)
	}
}

func TestGeneraliseToNewRegion(t *testing.T) {
	b := MustNew(smallBingoConfig())
	trainRegion(b, 0x400, 7, []int{2, 5, 9})

	// A brand-new region triggered by the same PC at the same offset:
	// only the short event can match, and the pattern transfers.
	addrs := b.OnAccess(access(0x400, blockAddr(200, 2)))
	if len(addrs) != 2 {
		t.Fatalf("prefetches = %v", addrs)
	}
	want := map[mem.Addr]bool{blockAddr(200, 5): true, blockAddr(200, 9): true}
	for _, a := range addrs {
		if !want[a] {
			t.Errorf("unexpected prefetch %v", a)
		}
	}
	if b.Stats().ShortMatches != 1 {
		t.Fatalf("stats = %+v (expected a short match)", b.Stats())
	}
}

func TestNoPrefetchWithoutHistory(t *testing.T) {
	b := MustNew(smallBingoConfig())
	if got := b.OnAccess(access(0x400, blockAddr(1, 0))); got != nil {
		t.Fatalf("cold prefetcher should not prefetch, got %v", got)
	}
	if b.Stats().NoMatches != 1 || b.Stats().Triggers != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestNonTriggerAccessesDoNotPrefetch(t *testing.T) {
	b := MustNew(smallBingoConfig())
	trainRegion(b, 0x400, 7, []int{2, 5})
	b.OnAccess(access(0x400, blockAddr(300, 2))) // trigger (short match)
	// Subsequent accesses within the tracked region never prefetch.
	if got := b.OnAccess(access(0x404, blockAddr(300, 5))); got != nil {
		t.Fatalf("non-trigger access prefetched %v", got)
	}
}

func TestMaxDegreeCapsPrefetches(t *testing.T) {
	cfg := smallBingoConfig()
	cfg.MaxDegree = 2
	b := MustNew(cfg)
	trainRegion(b, 0x400, 7, []int{0, 3, 5, 7, 9, 11})
	addrs := b.OnAccess(access(0x400, blockAddr(400, 0)))
	if len(addrs) != 2 {
		t.Fatalf("MaxDegree=2 but issued %d", len(addrs))
	}
}

func TestSingleBlockRegionNotTrained(t *testing.T) {
	b := MustNew(smallBingoConfig())
	b.OnAccess(access(0x400, blockAddr(7, 2)))
	b.OnEviction(blockAddr(7, 2)) // single-block: dropped
	if b.Stats().Trained != 0 {
		t.Fatalf("single-block region trained: %+v", b.Stats())
	}
	if got := b.OnAccess(access(0x400, blockAddr(500, 2))); got != nil {
		t.Fatalf("nothing should have been learned, got %v", got)
	}
}

func TestTriggerBlockNotPrefetched(t *testing.T) {
	b := MustNew(smallBingoConfig())
	trainRegion(b, 0x400, 7, []int{2, 5})
	addrs := b.OnAccess(access(0x400, blockAddr(600, 2)))
	for _, a := range addrs {
		if a == blockAddr(600, 2) {
			t.Fatal("the trigger block itself must not be prefetched")
		}
	}
}

func TestStorageBudgetMatchesPaper(t *testing.T) {
	b := MustNew(DefaultConfig())
	kb := float64(b.StorageBytes()) / 1024
	// Paper: 119 KB for the 16K-entry configuration. Allow the tracker's
	// few extra KB.
	if kb < 110 || kb > 135 {
		t.Fatalf("storage = %.1f KB, want ≈119 KB", kb)
	}
}

func TestName(t *testing.T) {
	if MustNew(smallBingoConfig()).Name() != "bingo" {
		t.Fatal("name wrong")
	}
}

func TestFactoryBuildsIndependentInstances(t *testing.T) {
	f := Factory(smallBingoConfig())
	a := f(0).(*Bingo)
	c := f(1).(*Bingo)
	trainRegion(a, 0x400, 7, []int{2, 5})
	if got := c.OnAccess(access(0x400, blockAddr(300, 2))); got != nil {
		t.Fatal("per-core instances must not share metadata")
	}
}

func TestRotationAcrossOffsets(t *testing.T) {
	// Train with trigger at offset 2, pattern {2,3,4}. A new region
	// triggered by the same PC at the same offset applies {_,3,4}.
	// (Different offsets are distinct short events and do not match.)
	b := MustNew(smallBingoConfig())
	trainRegion(b, 0x400, 7, []int{2, 3, 4})
	addrs := b.OnAccess(access(0x400, blockAddr(777, 2)))
	want := map[mem.Addr]bool{blockAddr(777, 3): true, blockAddr(777, 4): true}
	if len(addrs) != 2 {
		t.Fatalf("prefetches = %v", addrs)
	}
	for _, a := range addrs {
		if !want[a] {
			t.Errorf("unexpected prefetch %v", a)
		}
	}
}
