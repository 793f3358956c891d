package harness

import (
	"testing"
)

// TestCellRunnerRejectsBadLabels pins the label grammar's error paths. The
// first five labels parse but describe a Bingo configuration core.New
// rejects; CellRunner must report them instead of handing out a factory
// that panics when a (possibly remote) worker builds the system.
func TestCellRunnerRejectsBadLabels(t *testing.T) {
	for _, label := range []string{
		"bingo[region=3000]",    // not a power of two
		"bingo[region=1]",       // smaller than a block
		"bingo[region=1048576]", // more than 64 blocks per region
		"bingo[vote=5]",         // threshold outside (0,1]
		"bingo[hist=3]",         // not divisible into the table's ways
		"bingo[vote=NaN]",
		"bingo[hist=1073741824]", // past the history-size cap
		"bingo[hist=0]",
		"bingo[tags=-1]",
		"bingo[bogus=1]",
		"bingo[recent",
		"multievent1[event=nope]",
		"multievent2[x]",
		"nosuch[x]",
		"nosuch",
	} {
		if _, _, err := CellRunner(CellKey{Workload: "em3d", Prefetcher: label}); err == nil {
			t.Errorf("CellRunner(%q) accepted a label it must reject", label)
		}
	}
}

// FuzzCellRunner checks CellRunner's contract for arbitrary labels:
// either it returns an error, or its build yields a factory that
// constructs core 0's prefetcher without panicking. The corpus seeds
// every label the suite plans plus the labels that used to panic.
func FuzzCellRunner(f *testing.F) {
	seen := map[string]bool{}
	for _, c := range PlanExperiments(ExperimentOrder(), NewMatrix(FastRunOptions())) {
		if !seen[c.Key.Prefetcher] {
			seen[c.Key.Prefetcher] = true
			f.Add(c.Key.Prefetcher)
		}
	}
	for _, label := range []string{
		"bingo[region=3000]", "bingo[region=1]", "bingo[region=1048576]",
		"bingo[vote=5]", "bingo[hist=3]",
	} {
		f.Add(label)
	}
	f.Fuzz(func(t *testing.T, label string) {
		build, _, err := CellRunner(CellKey{Workload: "em3d", Prefetcher: label})
		if err != nil {
			return
		}
		factory, err := build()
		if err != nil {
			t.Fatalf("CellRunner accepted %q but its build failed: %v", label, err)
		}
		if factory != nil && factory(0) == nil {
			t.Fatalf("CellRunner accepted %q but its factory built a nil prefetcher", label)
		}
	})
}
