// Package telemetry is the simulator's observability layer: a
// dependency-light metrics registry (typed counters, gauges and
// histograms with stable names and snapshot/delta semantics), a
// prefetch lifecycle tracker that follows every prefetched block from
// issue to first demand use or eviction, and a cycle-sampled epoch
// time-series collector with JSON/CSV and Chrome trace_event exporters.
//
// Telemetry is strictly an observer. Attaching a Collector to a system
// never changes simulated state: results and stdout are byte-identical
// with telemetry on or off (the harness pins this with a differential
// oracle).
//
// Threading: the Lifecycle and the Collector's series belong to the
// simulation goroutine, like every other simulator component. Registry
// values are atomics so the optional debug HTTP server (expvar, pprof)
// may read them while a simulation runs.
package telemetry

// DefaultEpochCycles is the default sampling period of the epoch
// time-series: one sample per this many simulated cycles. At the paper's
// full per-core budgets a run spans a few million cycles, so the default
// yields a series of dozens of epochs — fine-grained enough to see
// phase behaviour, small enough to stay negligible in memory and time.
const DefaultEpochCycles = 50_000
