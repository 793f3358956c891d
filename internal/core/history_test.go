package core

import (
	"testing"
	"testing/quick"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

func newTestHistory(t *testing.T) *HistoryTable {
	t.Helper()
	rc := mem.MustRegionConfig(2048)
	return MustNewHistoryTable(rc, 64, 4, 0.20)
}

func blockAddr(region uint64, block int) mem.Addr {
	return mem.Addr(region*2048 + uint64(block)*64)
}

func TestHistoryValidation(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	cases := []struct {
		entries, ways int
		vote          float64
	}{
		{0, 4, 0.2},
		{10, 4, 0.2},  // not divisible
		{24, 4, 0.2},  // sets not pow2
		{64, 4, 0},    // bad vote
		{64, 4, 1.5},  // bad vote
		{64, -1, 0.2}, // bad ways
		{64, 32, 0.2}, // above the 16 ways an order word ranks
	}
	for i, c := range cases {
		if _, err := NewHistoryTable(rc, c.entries, c.ways, c.vote); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewHistoryTable(rc, 64, 4, 0.2); err != nil {
		t.Fatal(err)
	}
}

func TestLongMatchExact(t *testing.T) {
	h := newTestHistory(t)
	fp := prefetch.Footprint(0).With(3).With(5).With(9)
	h.Insert(0x400, blockAddr(7, 3), 3, fp)

	// Same PC and same block address: the long event matches and returns
	// the exact footprint (same trigger offset → identity rotation).
	got, kind := h.Lookup(0x400, blockAddr(7, 3), 3)
	if kind != MatchLong {
		t.Fatalf("kind = %v", kind)
	}
	if got != fp {
		t.Fatalf("footprint = %s, want %s", got.StringN(32), fp.StringN(32))
	}
	st := h.Stats()
	if st.LongHits != 1 || st.Lookups != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortMatchGeneralises(t *testing.T) {
	h := newTestHistory(t)
	fp := prefetch.Footprint(0).With(3).With(5)
	h.Insert(0x400, blockAddr(7, 3), 3, fp)

	// Different region, same PC and same offset: no long match, but the
	// short PC+Offset event matches and the pattern is re-anchored.
	got, kind := h.Lookup(0x400, blockAddr(99, 3), 3)
	if kind != MatchShort {
		t.Fatalf("kind = %v", kind)
	}
	if got != fp {
		t.Fatalf("generalised footprint = %s, want %s", got.StringN(32), fp.StringN(32))
	}
}

func TestShortMatchRotatesToNewOffset(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 4, 0.20)
	// Learned: trigger at offset 3 with used blocks {3,4,6}.
	h.Insert(0x400, blockAddr(7, 3), 3, prefetch.Footprint(0).With(3).With(4).With(6))

	// The same PC triggering at offset 3 of another region predicts the
	// same relative pattern {3,4,6}; a trigger at a different offset is a
	// different short event (offset is part of the key) and must miss.
	if _, kind := h.Lookup(0x400, blockAddr(50, 10), 10); kind != MatchNone {
		t.Fatalf("different offset should be a different short event, got %v", kind)
	}
}

func TestNoMatch(t *testing.T) {
	h := newTestHistory(t)
	if _, kind := h.Lookup(0x999, blockAddr(1, 1), 1); kind != MatchNone {
		t.Fatalf("empty table should miss, got %v", kind)
	}
	if h.Stats().Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestVoting(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 16, 0.5) // 50% threshold for clarity
	// Four regions trained under the same PC+Offset with overlapping
	// footprints; block 1 appears in all, block 9 in one.
	common := prefetch.Footprint(0).With(0).With(1)
	h.Insert(0x400, blockAddr(10, 0), 0, common.With(9))
	h.Insert(0x400, blockAddr(11, 0), 0, common)
	h.Insert(0x400, blockAddr(12, 0), 0, common)
	h.Insert(0x400, blockAddr(13, 0), 0, common)

	got, kind := h.Lookup(0x400, blockAddr(99, 0), 0)
	if kind != MatchShort {
		t.Fatalf("kind = %v", kind)
	}
	if !got.Test(1) || !got.Test(0) {
		t.Fatal("blocks in all footprints must be predicted")
	}
	if got.Test(9) {
		t.Fatal("block in only 1/4 footprints must not pass a 50% vote")
	}
}

func TestVoteThresholdLow(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 16, 0.20)
	common := prefetch.Footprint(0).With(0).With(1)
	h.Insert(0x400, blockAddr(10, 0), 0, common.With(9))
	h.Insert(0x400, blockAddr(11, 0), 0, common)
	h.Insert(0x400, blockAddr(12, 0), 0, common)
	h.Insert(0x400, blockAddr(13, 0), 0, common)
	got, _ := h.Lookup(0x400, blockAddr(99, 0), 0)
	if !got.Test(9) {
		t.Fatal("1/4 = 25% should pass the paper's 20% threshold")
	}
}

func TestMostRecentPolicy(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 16, 0.20)
	h.SetMostRecentPolicy(true)
	h.Insert(0x400, blockAddr(10, 0), 0, prefetch.Footprint(0).With(0).With(1))
	h.Insert(0x400, blockAddr(11, 0), 0, prefetch.Footprint(0).With(0).With(2))
	got, kind := h.Lookup(0x400, blockAddr(99, 0), 0)
	if kind != MatchShort {
		t.Fatalf("kind = %v", kind)
	}
	if !got.Test(2) || got.Test(1) {
		t.Fatalf("most-recent policy should return the newest footprint, got %s", got.StringN(32))
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	h := newTestHistory(t)
	h.Insert(0x400, blockAddr(7, 3), 3, prefetch.Footprint(0).With(3))
	h.Insert(0x400, blockAddr(7, 3), 3, prefetch.Footprint(0).With(3).With(4))
	got, kind := h.Lookup(0x400, blockAddr(7, 3), 3)
	if kind != MatchLong || !got.Test(4) {
		t.Fatalf("update lost: %v %s", kind, got.StringN(32))
	}
	if h.Stats().Insertions != 2 {
		t.Fatalf("insertions = %d", h.Stats().Insertions)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 8, 2, 0.20) // tiny: 4 sets × 2 ways
	for r := uint64(0); r < 64; r++ {
		h.Insert(0x400, blockAddr(r, 0), 0, prefetch.Footprint(1))
	}
	if h.Stats().Evictions == 0 {
		t.Fatal("pressure should evict")
	}
}

func TestLongAndShortShareSet(t *testing.T) {
	// The consolidation property: a footprint stored under its long tag
	// must be findable by the short event alone — they index the same
	// set by construction.
	h := newTestHistory(t)
	for r := uint64(0); r < 20; r++ {
		h.Insert(0x400, blockAddr(r, 5), 5, prefetch.Footprint(0).With(5).With(6))
	}
	_, kind := h.Lookup(0x400, blockAddr(1000, 5), 5)
	if kind != MatchShort {
		t.Fatalf("short lookup should find entries stored under long tags, got %v", kind)
	}
}

func TestMatchProbability(t *testing.T) {
	s := HistoryStats{Lookups: 10, LongHits: 2, ShortHits: 3, Misses: 5}
	if s.MatchProbability() != 0.5 {
		t.Fatalf("MatchProbability = %v", s.MatchProbability())
	}
	if (HistoryStats{}).MatchProbability() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestMatchKindString(t *testing.T) {
	if MatchNone.String() != "none" || MatchLong.String() != "long" || MatchShort.String() != "short" {
		t.Fatal("MatchKind strings wrong")
	}
}

func TestHistoryRoundTripProperty(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	f := func(pcRaw, region uint64, offRaw uint8, fpRaw uint32) bool {
		h := MustNewHistoryTable(rc, 64, 4, 0.20)
		pc := mem.PC(pcRaw)
		off := int(offRaw) % 32
		fp := prefetch.Footprint(fpRaw).With(off) // trigger block always used
		addr := blockAddr(region%1024, off)
		h.Insert(pc, addr, off, fp)
		got, kind := h.Lookup(pc, addr, off)
		return kind == MatchLong && got == fp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoteMonotonicityProperty(t *testing.T) {
	// A stricter vote threshold never predicts a block a looser one
	// rejects: prediction(0.5) ⊆ prediction(0.2) for identical history.
	rc := mem.MustRegionConfig(2048)
	f := func(fps [4]uint32) bool {
		loose := MustNewHistoryTable(rc, 64, 16, 0.20)
		strict := MustNewHistoryTable(rc, 64, 16, 0.50)
		for i, raw := range fps {
			fp := prefetch.Footprint(raw).With(0)
			loose.Insert(0x400, blockAddr(uint64(i), 0), 0, fp)
			strict.Insert(0x400, blockAddr(uint64(i), 0), 0, fp)
		}
		lf, lk := loose.Lookup(0x400, blockAddr(999, 0), 0)
		sf, sk := strict.Lookup(0x400, blockAddr(999, 0), 0)
		if lk != MatchShort || sk != MatchShort {
			return false
		}
		return sf&lf == sf // strict ⊆ loose
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagTruncationStillRoundTrips(t *testing.T) {
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 4, 0.20)
	h.SetTagTruncation(23)
	fp := prefetch.Footprint(0).With(3).With(9)
	h.Insert(0x400, blockAddr(7, 3), 3, fp)
	got, kind := h.Lookup(0x400, blockAddr(7, 3), 3)
	if kind != MatchLong || got != fp {
		t.Fatalf("truncated tags broke the exact roundtrip: %v %s", kind, got.StringN(32))
	}
}

func TestTagTruncationAdmitsAliasing(t *testing.T) {
	// With a 1-bit tag, half of all other events alias onto a stored
	// entry — the failure mode full-width tags cannot have.
	rc := mem.MustRegionConfig(2048)
	h := MustNewHistoryTable(rc, 64, 4, 0.20)
	h.SetTagTruncation(1)
	h.Insert(0x400, blockAddr(7, 3), 3, prefetch.Footprint(0).With(3))
	aliases := 0
	for r := uint64(100); r < 300; r++ {
		if _, kind := h.Lookup(0x400, blockAddr(r, 3), 3); kind == MatchLong {
			aliases++
		}
	}
	if aliases == 0 {
		t.Fatal("1-bit tags should alias frequently")
	}
	// Full-width tags never alias on the same probes.
	hf := MustNewHistoryTable(rc, 64, 4, 0.20)
	hf.Insert(0x400, blockAddr(7, 3), 3, prefetch.Footprint(0).With(3))
	for r := uint64(100); r < 300; r++ {
		if _, kind := hf.Lookup(0x400, blockAddr(r, 3), 3); kind == MatchLong {
			t.Fatal("full-width tags must not alias")
		}
	}
}
