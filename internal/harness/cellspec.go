package harness

import (
	"fmt"
	"strconv"
	"strings"

	"bingo/internal/core"
	"bingo/internal/prefetch"
	"bingo/internal/system"
)

// Job-granular cell execution: a CellKey plus a RunOptions value fully
// determines one simulation. CellRunner reconstructs the prefetcher
// factory (and any instrumentation probe) from the key's label alone, so
// the identical cell can be executed by a local renderer or a warm
// worker, and the singleflight matrix has one notion of what a cell
// *is*. Every experiment accessor routes through ExecuteCell, which
// keeps the label grammar below the single source of truth for
// custom-config variants: a label that parses differently from what a
// renderer intended would change rendered tables and be caught by the
// suite determinism oracles.
//
// Config-level variants that modify RunOptions rather than the
// prefetcher — queue=N, seed=N, and the core-scaling cores=N (see
// coresOpts, which resizes the machine via Config.WithCores) — ride in
// CellKey.Variant with the modified RunOptions carried alongside the
// cell; the label grammar below stays prefetcher-only.

// EventCounters is the instrumented payload of a single-event history
// cell (Figure 2): predictions offered vs table lookups performed.
type EventCounters struct {
	Predicted uint64
	Lookups   uint64
}

// RedundancyCounters is the instrumented payload of the dual-table
// redundancy probe (Figure 4).
type RedundancyCounters struct {
	BothHit   uint64
	Identical uint64
}

// CellRunner resolves a cell key's prefetcher label into the factory
// builder (and optional instrumentation probe) that executes it. A probe
// reads the finished system's per-core prefetchers; given none, it
// returns its payload type's zero value. Plain registry names resolve
// through FactoryByName; bracketed labels encode custom configurations:
//
//	multievent1[event=PC+Offset]   single-event history table (Figure 2)
//	multievent2[probe]             dual-table redundancy probe (Figure 4)
//	bingo[hist=16384]              resized history table (Figure 6)
//	bingo[vote=0.20]               vote-threshold ablation
//	bingo[recent]                  most-recent-footprint heuristic
//	bingo[region=2048]             region-size ablation
//	bingo[tags=16]                 truncated partial tags
//
// The returned build constructs a fresh factory per call (concurrent
// cells must never share mutable prefetcher state).
func CellRunner(key CellKey) (build func() (prefetch.Factory, error), probe func([]prefetch.Prefetcher) any, err error) {
	name := key.Prefetcher
	open := strings.IndexByte(name, '[')
	if open < 0 {
		if _, err := FactoryByName(name); err != nil {
			return nil, nil, err
		}
		return func() (prefetch.Factory, error) { return FactoryByName(name) }, nil, nil
	}
	if !strings.HasSuffix(name, "]") {
		return nil, nil, fmt.Errorf("harness: malformed cell label %q", name)
	}
	base, arg := name[:open], name[open+1:len(name)-1]
	switch base {
	case "multievent1":
		kindName, ok := strings.CutPrefix(arg, "event=")
		if !ok {
			return nil, nil, fmt.Errorf("harness: malformed multievent1 label %q", name)
		}
		kind, err := parseEventKind(kindName)
		if err != nil {
			return nil, nil, err
		}
		build = func() (prefetch.Factory, error) {
			cfg := core.DefaultMultiEventConfig(1)
			cfg.Events = []prefetch.EventKind{kind}
			return core.MultiEventFactory(cfg), nil
		}
		probe = func(pfs []prefetch.Prefetcher) any {
			p, l := multiEventLookups(pfs)
			return EventCounters{Predicted: p, Lookups: l}
		}
		return build, probe, nil
	case "multievent2":
		if arg != "probe" {
			return nil, nil, fmt.Errorf("harness: malformed multievent2 label %q", name)
		}
		build = func() (prefetch.Factory, error) {
			cfg := core.DefaultMultiEventConfig(2)
			cfg.ProbeRedundant = true
			return core.MultiEventFactory(cfg), nil
		}
		probe = func(pfs []prefetch.Prefetcher) any {
			var c RedundancyCounters
			for _, p := range pfs {
				if me, ok := p.(*core.MultiEvent); ok {
					c.BothHit += me.BothHit
					c.Identical += me.Identical
				}
			}
			return c
		}
		return build, probe, nil
	case "bingo":
		cfg, err := bingoVariantConfig(name, arg)
		if err != nil {
			return nil, nil, err
		}
		// A label whose configuration core.New rejects must fail here with
		// an error, not panic inside the factory when a warm worker builds
		// the system. Validate checks it without allocating the tables.
		if err := cfg.Validate(); err != nil {
			return nil, nil, fmt.Errorf("harness: cell label %q: %w", name, err)
		}
		return func() (prefetch.Factory, error) { return core.Factory(cfg), nil }, nil, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown cell label family %q", name)
	}
}

// maxVariantHistory caps bingo[hist=N] at 16x the largest Figure 6 size,
// so a label cannot request a history table that exhausts memory.
const maxVariantHistory = 1 << 20

// bingoVariantConfig parses one bracketed Bingo variant argument into a
// configuration derived from the defaults.
func bingoVariantConfig(label, arg string) (core.Config, error) {
	cfg := core.DefaultConfig()
	if arg == "recent" {
		cfg.MostRecent = true
		return cfg, nil
	}
	k, v, ok := strings.Cut(arg, "=")
	if !ok {
		return core.Config{}, fmt.Errorf("harness: malformed bingo label %q", label)
	}
	switch k {
	case "hist":
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > maxVariantHistory {
			return core.Config{}, fmt.Errorf("harness: bad history size in label %q", label)
		}
		cfg.HistoryEntries = n
	case "vote":
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 1) {
			return core.Config{}, fmt.Errorf("harness: bad vote threshold in label %q", label)
		}
		cfg.VoteThreshold = f
	case "region":
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return core.Config{}, fmt.Errorf("harness: bad region size in label %q", label)
		}
		cfg.RegionBytes = n
	case "tags":
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return core.Config{}, fmt.Errorf("harness: bad tag width in label %q", label)
		}
		cfg.TruncateTags = true
		cfg.LongTagBits = n
	default:
		return core.Config{}, fmt.Errorf("harness: unknown bingo variant %q in label %q", k, label)
	}
	return cfg, nil
}

// parseEventKind maps an event kind's String form back to the kind.
func parseEventKind(s string) (prefetch.EventKind, error) {
	for _, k := range prefetch.AllEvents() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown event kind %q", s)
}

// ExecuteCell runs (or recalls) the cell identified by key under opts,
// resolving the cell's configuration from the key itself. This is the
// execution path shared by renderers and the warm pool: whoever holds
// (key, opts) can perform — and memoise — the identical simulation. On
// a recording matrix (see PlanExperiments) it still resolves the label,
// so a bad one fails, but records the cell instead of simulating it.
func (m *Matrix) ExecuteCell(key CellKey, opts RunOptions) (system.Results, any, error) {
	build, probe, err := CellRunner(key)
	if err != nil {
		return system.Results{}, nil, err
	}
	if m.plan != nil {
		return m.record(key, opts, probe)
	}
	return m.RunCell(key, opts, build, probe)
}
