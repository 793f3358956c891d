package core

import (
	"math/rand"
	"testing"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// perBlockVote is the short-event vote as a per-block loop: count each
// block's votes across the matching (anchored) footprints, keep the
// blocks with at least ceil(threshold × matches) votes, and re-anchor at
// the trigger offset.
func perBlockVote(matches []prefetch.Footprint, threshold float64, triggerOffset, blocks int) prefetch.Footprint {
	var votes [64]int
	for _, fp := range matches {
		for b := 0; b < blocks; b++ {
			if fp.Test(b) {
				votes[b]++
			}
		}
	}
	needed := int(threshold*float64(len(matches)) + 0.9999)
	if needed < 1 {
		needed = 1
	}
	var fp prefetch.Footprint
	for b := 0; b < blocks; b++ {
		if votes[b] >= needed {
			fp = fp.With(b)
		}
	}
	return fp.Rotate(0, triggerOffset, blocks)
}

// TestShortVoteMatchesPerBlockLoop fills one 16-way set with 1 to 16
// entries that share a PC+Offset event and compares each short-match
// Lookup against the per-block loop, at every threshold of the
// ablate-vote sweep and for 8-, 32- and 64-block regions. Footprint
// densities vary per trial so block counts land on every side of each
// threshold.
func TestShortVoteMatchesPerBlockLoop(t *testing.T) {
	thresholds := []float64{0.10, 0.20, 0.33, 0.50, 1.00} // the ablate-vote sweep
	rng := rand.New(rand.NewSource(1))
	for _, regionBytes := range []uint64{512, 2048, 4096} {
		rc := mem.MustRegionConfig(regionBytes)
		blocks := rc.Blocks()
		for _, threshold := range thresholds {
			for matches := 1; matches <= 16; matches++ {
				for trial := 0; trial < 8; trial++ {
					h := MustNewHistoryTable(rc, 16, 16, threshold) // one set
					off := rng.Intn(blocks)
					density := rng.Intn(4) // 0: sparse … 3: dense
					for r := 0; r < matches; r++ {
						var fp prefetch.Footprint
						for b := 0; b < blocks; b++ {
							if rng.Intn(4) < density || rng.Intn(16) == 0 {
								fp = fp.With(b)
							}
						}
						h.Insert(0x400, mem.Addr(uint64(r)*regionBytes)+mem.Addr(off*mem.BlockSize), off, fp.With(off))
					}
					var stored []prefetch.Footprint
					for _, e := range h.sets {
						if e.valid {
							stored = append(stored, e.footprint)
						}
					}
					if len(stored) != matches {
						t.Fatalf("set holds %d entries, want %d", len(stored), matches)
					}
					trigger := rng.Intn(blocks)
					addr := mem.Addr(1000*regionBytes) + mem.Addr(off*mem.BlockSize) // never trained
					got, kind := h.Lookup(0x400, addr, trigger)
					want := perBlockVote(stored, threshold, trigger, blocks)
					if kind != MatchShort || got != want {
						t.Fatalf("%d blocks, threshold %.2f, %d matches: Lookup = %#x/%s, per-block loop %#x",
							blocks, threshold, matches, uint64(got), kind, uint64(want))
					}
				}
			}
		}
	}
}
