// Custom: implement your own prefetcher against the library's Prefetcher
// interface and evaluate it on the paper's system and workloads, head to
// head with Bingo. The example implements a simple sequential
// next-two-line prefetcher in ~30 lines.
package main

import (
	"fmt"
	"log"

	"bingo"
)

// nextTwo prefetches the two blocks following every demand access — the
// simplest possible spatial heuristic, useful as a floor reference.
type nextTwo struct {
	issued uint64
}

func (p *nextTwo) Name() string { return "next-two" }

func (p *nextTwo) OnAccess(ev bingo.AccessEvent) []bingo.Addr {
	base := ev.Addr.BlockAlign()
	p.issued += 2
	// Example code favors clarity over buffer reuse: this allocates on
	// every call, which a simulator prefetcher must not.
	return []bingo.Addr{
		base + 1*bingo.BlockSize,
		base + 2*bingo.BlockSize,
	}
}

func (p *nextTwo) OnEviction(bingo.Addr) {}

func (p *nextTwo) StorageBytes() int { return 0 }

func main() {
	opts := bingo.DefaultRunOptions()
	w, ok := bingo.WorkloadByName("em3d")
	if !ok {
		log.Fatal("workload not found")
	}

	base, err := bingo.RunWorkload(w, "none", opts)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate the custom prefetcher: the factory builds one instance per
	// core, exactly like the built-in prefetchers.
	custom, err := bingo.RunWorkloadWith(w, func(core int) bingo.Prefetcher {
		return &nextTwo{}
	}, opts)
	if err != nil {
		log.Fatal(err)
	}

	official, err := bingo.RunWorkload(w, "bingo", opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (baseline %.2f IPC)\n\n", w.Name, base.Throughput())
	for _, r := range []bingo.Results{custom, official} {
		fmt.Printf("%-10s speedup=%+6.1f%%  coverage=%5.1f%%  accuracy=%5.1f%%  overprediction=%5.1f%%\n",
			r.PrefetcherName,
			(r.Throughput()/base.Throughput()-1)*100,
			r.CoverageVsBaseline(base.LLC.Misses)*100,
			r.Accuracy()*100,
			r.Overprediction(base.LLC.Misses)*100)
	}
	fmt.Println("\nswap nextTwo for your own design: implement Name/OnAccess/OnEviction/StorageBytes.")
}
