package harness

import (
	"fmt"
	"math"

	"bingo/internal/workloads"
)

// SeedStats summarises a metric across several seeded runs.
type SeedStats struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

// String renders as "mean ± stddev".
func (s SeedStats) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.StdDev, s.N)
}

func newSeedStats(samples []float64) SeedStats {
	st := SeedStats{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(samples) == 0 {
		return SeedStats{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
	}
	st.Mean = sum / float64(len(samples))
	var ss float64
	for _, v := range samples {
		d := v - st.Mean
		ss += d * d
	}
	if len(samples) > 1 {
		st.StdDev = math.Sqrt(ss / float64(len(samples)-1))
	}
	return st
}

// defaultSeeds is the seed sweep used when the caller passes none.
func defaultSeeds() []int64 { return []int64{1, 2, 3, 4, 5} }

// seedOpts returns the modified options and cell variant for one seed.
func seedOpts(base RunOptions, seed int64) (RunOptions, string) {
	o := base
	o.Seed = seed
	return o, fmt.Sprintf("seed=%d", seed)
}

// seedSample returns the memoised speedup of prefetcher over the baseline
// on w under one seed.
func (m *Matrix) seedSample(w workloads.Spec, prefetcher string, seed int64) (float64, error) {
	o, variant := seedOpts(m.Options(), seed)
	base, err := m.GetOpts(w, "none", variant, o)
	if err != nil {
		return 0, err
	}
	res, err := m.GetOpts(w, prefetcher, variant, o)
	if err != nil {
		return 0, err
	}
	return res.Throughput() / base.Throughput(), nil
}

// SeedSweep renders the multi-seed robustness table for one prefetcher,
// memoising each seeded run in m: the speedup distribution over workload
// seeds behind the single-seed figures (the paper's SimFlex methodology
// reports 95% confidence over checkpoint samples; seeds play the role of
// checkpoints here).
func SeedSweep(m *Matrix, prefetcher string, seeds []int64) (Table, error) {
	if len(seeds) == 0 {
		seeds = defaultSeeds()
	}
	t := Table{
		Title:   fmt.Sprintf("Multi-Seed Robustness: %s speedup across workload seeds", prefetcher),
		Headers: []string{"Workload", "Speedup (mean ± stddev)", "Min", "Max"},
	}
	for _, w := range workloads.All() {
		samples := make([]float64, 0, len(seeds))
		for _, seed := range seeds {
			sp, err := m.seedSample(w, prefetcher, seed)
			if err != nil {
				return Table{}, err
			}
			samples = append(samples, sp)
		}
		st := newSeedStats(samples)
		t.AddRow(w.Name,
			fmt.Sprintf("%+.1f%% ± %.1f", (st.Mean-1)*100, st.StdDev*100),
			speedupPct(st.Min), speedupPct(st.Max))
	}
	t.AddNote("seeds play the role of the paper's SimFlex checkpoint samples")
	return t, nil
}
