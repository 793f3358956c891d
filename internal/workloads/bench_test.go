package workloads

import "testing"

// Generator throughput matters because trace generation is inlined into
// the simulation loop.
func BenchmarkGenerators(b *testing.B) {
	for _, spec := range All() {
		b.Run(spec.Name, func(b *testing.B) {
			src := spec.Sources(1, 1)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := src.Next(); !ok {
					b.Fatal("source ended")
				}
			}
		})
	}
}

// BenchmarkSources measures per-cell set-up: building the four Table I
// cores' generators, which every simulation pays before its first cycle.
func BenchmarkSources(b *testing.B) {
	for _, spec := range All() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(spec.Sources(4, 1)) != 4 {
					b.Fatal("want four sources")
				}
			}
		})
	}
}
