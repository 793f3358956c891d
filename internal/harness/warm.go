package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// WarmStats summarises a WarmStore's effect on one suite run.
type WarmStats struct {
	// Hits counts cells restored from an existing warm-start artifact;
	// Misses counts cells that had to execute their own warm-up (and
	// saved an artifact for the next run).
	Hits   uint64
	Misses uint64
	// CyclesSkipped is the simulated warm-up cycles the hits avoided;
	// CyclesRun is the warm-up cycles the misses actually executed.
	CyclesSkipped uint64
	CyclesRun     uint64
}

// WarmStore caches end-of-warm-up checkpoints on disk so repeated
// experiment runs skip the warm-up phase. Artifacts are keyed by the
// cell key and the complete run options: warm-up trains prefetcher
// state, so a warm artifact is only reusable by the *identical* cell —
// same workload, same prefetcher, same configuration, same seeds.
// Sharing across prefetchers would leak one prefetcher's training into
// another's run and silently change results.
//
// Writes are atomic (temp file + rename), so concurrent processes
// sharing a directory either see a complete artifact or none. A corrupt
// or stale artifact fails checkpoint validation on load; the store then
// removes it and regenerates from scratch, so a damaged cache directory
// degrades to cold-start behaviour instead of wrong results.
type WarmStore struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*warmCall
	stats    WarmStats
}

// warmCall is one in-flight artifact population; waiters block on done
// and then load the file the populator wrote.
type warmCall struct {
	done chan struct{}
	err  error
}

// NewWarmStore opens (creating if needed) a warm-start artifact
// directory.
func NewWarmStore(dir string) (*WarmStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: warm store: %w", err)
	}
	return &WarmStore{dir: dir, inflight: make(map[string]*warmCall)}, nil
}

// Stats returns a snapshot of the hit/miss accounting.
func (ws *WarmStore) Stats() WarmStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.stats
}

// artifactPath derives the on-disk name for one cell's warm state. The
// full option struct is hashed in so that any configuration change —
// budgets, cache geometry, seeds — keys a different artifact.
func (ws *WarmStore) artifactPath(key CellKey, opts RunOptions) string {
	sum := sha256.Sum256([]byte(key.String() + "|" + fmt.Sprintf("%+v", opts)))
	return filepath.Join(ws.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// RunWithSystem runs the cell's simulation with warm-start reuse: on an
// artifact hit the warm-up phase is restored from disk, on a miss the
// warm-up executes and its end state is saved for the next run. Either
// way the measured results are byte-identical to a cold run — the
// checkpoint captures the complete simulation state, and warm-up is
// per-cell so no state crosses cells. build constructs a fresh
// prefetcher factory (nil factory for the baseline); it is invoked once
// per system built here, never shared across systems, because factories
// may close over per-instance state (SharedFactory does).
//
// prep, if non-nil, attaches observers (a telemetry collector) to every
// system built here, immediately after construction — in particular
// before a checkpoint restore, so restored state can flow into the
// observer. Artifacts are keyed by cell and options only: a populating
// run with observers attached writes an artifact that a later
// observer-free run restores identically (and vice versa), because the
// checkpoint's telemetry section is ignored or resynced as needed.
func (ws *WarmStore) RunWithSystem(w workloads.Spec, key CellKey, opts RunOptions, build func() (prefetch.Factory, error), prep func(*system.System)) (*system.System, system.Results, error) {
	buildSys := func() (*system.System, error) {
		var factory prefetch.Factory
		if build != nil {
			var err error
			factory, err = build()
			if err != nil {
				return nil, err
			}
		}
		sys, err := BuildSystem(w, factory, opts)
		if err == nil && prep != nil {
			prep(sys)
		}
		return sys, err
	}

	path := ws.artifactPath(key, opts)
	sys, hit, err := ws.acquire(path, buildSys)
	if err != nil {
		return nil, system.Results{}, err
	}
	ws.mu.Lock()
	if hit {
		ws.stats.Hits++
		ws.stats.CyclesSkipped += sys.Clock()
	} else {
		ws.stats.Misses++
		ws.stats.CyclesRun += sys.Clock()
	}
	ws.mu.Unlock()

	return sys, sys.Run(), nil
}

// acquire returns a system positioned at the measurement boundary:
// restored from the artifact when present (hit), or warmed up here with
// the artifact saved for next time (miss). Population is singleflighted
// per artifact so concurrent cells sharing a store don't duplicate the
// same warm-up.
func (ws *WarmStore) acquire(path string, buildSys func() (*system.System, error)) (*system.System, bool, error) {
	for {
		ws.mu.Lock()
		if call, ok := ws.inflight[path]; ok {
			ws.mu.Unlock()
			<-call.done
			if call.err != nil {
				return nil, false, call.err
			}
			// The populator wrote the artifact; load it.
			if sys, err := ws.tryLoad(path, buildSys); err == nil && sys != nil {
				return sys, true, nil
			} else if err != nil {
				return nil, false, err
			}
			continue // artifact vanished: race with cleanup, repopulate
		}
		ws.mu.Unlock()

		// Fast path: artifact already on disk.
		sys, err := ws.tryLoad(path, buildSys)
		if err != nil {
			return nil, false, err
		}
		if sys != nil {
			return sys, true, nil
		}

		// Populate. Re-check inflight under the lock to keep singleflight.
		ws.mu.Lock()
		if _, ok := ws.inflight[path]; ok {
			ws.mu.Unlock()
			continue
		}
		call := &warmCall{done: make(chan struct{})}
		ws.inflight[path] = call
		ws.mu.Unlock()

		sys, err = ws.populate(path, buildSys)
		call.err = err
		close(call.done)
		ws.mu.Lock()
		delete(ws.inflight, path)
		ws.mu.Unlock()
		return sys, false, err
	}
}

// tryLoad restores the artifact into a freshly built system. It returns
// (nil, nil) when no artifact exists. A corrupt artifact is removed and
// reported as absent — the caller regenerates it.
func (ws *WarmStore) tryLoad(path string, buildSys func() (*system.System, error)) (*system.System, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("harness: warm store: %w", err)
	}
	sys, err := buildSys()
	if err != nil {
		_ = f.Close() // best-effort: the build error wins
		return nil, err
	}
	loadErr := sys.LoadCheckpoint(f)
	closeErr := f.Close()
	if loadErr == nil && closeErr != nil {
		loadErr = closeErr
	}
	if loadErr != nil {
		// A failed load leaves the system in an undefined state: discard
		// it and the artifact both. The caller rebuilds from scratch.
		_ = os.Remove(path) // best-effort: an unremovable artifact just fails again next run
		return nil, nil
	}
	return sys, nil
}

// populate executes the warm-up on a fresh system and saves its end
// state atomically. The warmed system itself is returned — the caller
// continues into measurement on it, so the populating run costs exactly
// one cold run.
func (ws *WarmStore) populate(path string, buildSys func() (*system.System, error)) (*system.System, error) {
	sys, err := buildSys()
	if err != nil {
		return nil, err
	}
	sys.RunWarmup()

	tmp, err := os.CreateTemp(ws.dir, ".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("harness: warm store: %w", err)
	}
	saveErr := sys.SaveCheckpoint(tmp)
	closeErr := tmp.Close()
	if saveErr == nil {
		saveErr = closeErr
	}
	if saveErr == nil {
		saveErr = os.Rename(tmp.Name(), path)
	}
	if saveErr != nil {
		_ = os.Remove(tmp.Name()) // best-effort temp cleanup: the save error wins
		return nil, fmt.Errorf("harness: warm store: saving %s: %w", filepath.Base(path), saveErr)
	}
	return sys, nil
}
