//go:build san

package prefetch

import (
	"testing"

	"bingo/internal/mem"
	"bingo/internal/san"
)

// expectResidencyViolation runs f and fails unless it reports
// SAN-TABLE-RESIDENCY.
func expectResidencyViolation(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		v, ok := recover().(*san.Violation)
		if !ok || v.Invariant != san.TableResidency {
			t.Errorf("%s: deep sweep reported %v, want %s", what, v, san.TableResidency)
		}
	}()
	f()
}

// TestSanDeepCheckCatchesFingerprintFaults seeds each fault the deep
// sweep's fingerprint checks exist for into a healthy 12-way table (so a
// set's last fingerprint word has padding lanes) and expects a report.
func TestSanDeepCheckCatchesFingerprintFaults(t *testing.T) {
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 1 << 30})
	build := func() *Table[int] {
		tbl := MustNewTable[int](8*12, 12)
		for k := uint64(1); k <= 40; k++ {
			tbl.Insert(k, int(k))
		}
		tbl.sanDeepCheck() // healthy: must not report
		return tbl
	}
	build() // outside the expectations, so a report from a healthy table fails the test
	expectResidencyViolation(t, "wrong fingerprint", func() {
		tbl := build()
		si, fp := tbl.slot(1)
		i := tbl.find(si, fp, 1)
		tbl.setFP(si, i-si*tbl.ways, fp^0x01)
		tbl.sanDeepCheck()
	})
	expectResidencyViolation(t, "empty way with a tag", func() {
		tbl := build()
		tbl.Erase(2)
		for i := range tbl.tags {
			if tbl.fp(i/tbl.ways, i%tbl.ways) == 0 {
				tbl.tags[i] = 99
				break
			}
		}
		tbl.sanDeepCheck()
	})
	expectResidencyViolation(t, "padding lane set", func() {
		tbl := build()
		tbl.fps[1] |= 0x80 << 56 // lane 15 of set 0: beyond its 12 ways
		tbl.sanDeepCheck()
	})
}

// TestSanTrackerPresenceCatchesCountFaults corrupts one presence count of
// a healthy tracker, up and down, and expects the deep sweep to report.
func TestSanTrackerPresenceCatchesCountFaults(t *testing.T) {
	defer san.Apply(san.DefaultConfig())
	san.Apply(san.Config{Enabled: true, DeepInterval: 1 << 30})
	for _, delta := range []int{-1, +1} {
		rt := MustNewRegionTracker(mem.MustRegionConfig(2048), 16, 32, 4)
		for r := uint64(0); r < 40; r++ {
			rt.Observe(0x400, mem.Addr(r*2048), false)
			if r%2 == 0 {
				rt.Observe(0x404, mem.Addr(r*2048+64), false) // promote
			}
		}
		rt.sanDeepCheck() // healthy: must not report
		*rt.presenceBucket(6) += uint16(delta)
		func() {
			defer func() {
				v, ok := recover().(*san.Violation)
				if !ok || v.Invariant != san.TrackerPresence {
					t.Errorf("count %+d: deep sweep reported %v, want %s", delta, v, san.TrackerPresence)
				}
			}()
			rt.sanDeepCheck()
		}()
	}
}
