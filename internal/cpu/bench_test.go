package cpu

import (
	"testing"

	"bingo/internal/trace"
	"bingo/internal/vm"
	"bingo/internal/workloads"
)

// BenchmarkRunAhead measures the core model alone: RunAhead and Issue
// over 64 Ki records of Mix1's core 0, recorded once, on a port that
// completes every access after Table I's L1 hit latency. It reports ns
// per memory operation; building each iteration's core is not timed.
func BenchmarkRunAhead(b *testing.B) {
	spec, ok := workloads.ByName("Mix1")
	if !ok {
		b.Fatal("no Mix1 workload")
	}
	recs := trace.Collect(spec.Sources(1, 1)[0], 1<<16)
	var memOps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := MustNew(DefaultConfig(), 0, trace.NewSliceSource(recs), vm.Identity{}, &fixedPort{latency: 4})
		c.Enter(0)
		b.StartTimer()
		for !c.Done() {
			if stop, _ := c.RunAhead(^uint64(0), ^uint64(0)); stop == AtMemOp {
				c.Issue()
				memOps++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(memOps), "ns/memop")
}
