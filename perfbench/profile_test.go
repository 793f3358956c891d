package main

import (
	"math"
	"testing"
)

// A trimmed `go tool pprof -top` report. The generic row's name has
// spaces inside its type arguments.
const sampleTop = `File: perfbench
Type: cpu
Duration: 7.54s, Total samples = 7.37s (97.80%)
Showing nodes accounting for 7.37s, 100% of 7.37s total
      flat  flat%   sum%        cum   cum%
     0.98s 13.30% 13.30%      7.02s 95.25%  bingo/internal/system.(*System).runUntilMark
     0.69s  9.36% 22.66%      0.69s  9.36%  bingo/internal/cpu.(*Core).retire (inline)
     0.52s  7.06% 29.72%      0.52s  7.06%  time.runtimeNow
     0.45s  6.11% 35.83%      0.45s  6.11%  bingo/internal/cache.(*Cache).lookup (inline)
     0.20s  2.71% 38.54%      0.20s  2.71%  runtime.nanotime (inline)
     0.14s  1.90% 40.44%      0.23s  3.12%  math/rand.(*Rand).Perm
     0.10s  1.36% 41.80%      0.12s  1.63%  bingo/internal/prefetch.(*Table[go.shape.struct { Region uint64; Footprint bingo/internal/prefetch.Footprint }]).Erase
     0.06s  0.81% 42.61%      0.06s  0.81%  internal/runtime/maps.h2 (inline)
     0.05s  0.68% 43.29%      0.05s  0.68%  bingo/internal/prefetchers/sms.(*SMS).OnAccess
     0.04s  0.54% 43.83%      0.61s  8.28%  main.(*timedSource).Next
     0.03s  0.41% 44.24%      0.27s  3.66%  bingo/internal/workloads.newZeus
     0.02s  0.27% 44.51%      0.02s  0.27%  bingo/internal/harness.RenderTables.func1
`

func TestBucketTop(t *testing.T) {
	got, err := bucketTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"system":      13.30,
		"cpu":         9.36,
		"cache":       6.11,
		"runtime":     2.71 + 0.81,
		"std":         7.06 + 1.90,
		"prefetch":    1.36,
		"prefetchers": 0.68,
		"perfbench":   0.54,
		"workloads":   0.41,
		"harness":     0.27,
		"dram":        0,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s: got %v%%, want %v%%", layer, got[layer], w)
		}
	}
	for _, l := range profileLayers {
		if _, ok := got[l]; !ok {
			t.Errorf("layer %s missing from the buckets", l)
		}
	}
	if len(got) != len(profileLayers) {
		t.Errorf("got %d buckets, want %d", len(got), len(profileLayers))
	}
}

func TestBucketTopRejectsOtherOutput(t *testing.T) {
	if _, err := bucketTop("no profile here\n"); err == nil {
		t.Error("want an error for output without a -top table")
	}
}

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"runtime.mallocgc":                                                   "runtime",
		"bingo/internal/cache.(*Cache).Access":                               "bingo/internal/cache",
		"bingo/internal/prefetchers/vldp.(*VLDP).OnAccess":                   "bingo/internal/prefetchers/vldp",
		"bingo/internal/prefetch.(*Table[bingo/internal/core.entry]).Lookup": "bingo/internal/prefetch",
		"internal/runtime/maps.(*Map).getWithKey":                            "internal/runtime/maps",
		"main.main":               "main",
		"math/rand.(*Rand).Int63": "math/rand",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
