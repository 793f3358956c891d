// Package benchenv captures the machine environment a benchmark
// artefact was recorded on. Every BENCH_*.json emitter embeds Env at
// the top of its document: speedups, overheads, and cells/sec are
// meaningless without knowing the Go version, CPU count, and worker
// pool width behind them — a 1.04x "parallel speedup" is honest on a
// single-CPU host and a regression on a 16-core one.
package benchenv

import "runtime"

// Env is the shared environment block embedded (first) in every
// benchmark document, so all BENCH_*.json files lead with the same
// fields in the same order.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Degraded marks artefacts recorded on a host that cannot produce a
	// meaningful parallel measurement (a single CPU: a worker pool only
	// adds scheduling overhead there). It is the machine-readable form of
	// the "re-record on a multi-core machine" prose note — consumers gate
	// speedup assertions on it instead of parsing notes.
	Degraded bool `json:"degraded"`
}

// Capture records the current process's environment.
func Capture() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Degraded:   runtime.NumCPU() == 1,
	}
}
