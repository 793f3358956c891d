// Package fdp implements Feedback-Directed Prefetching (Srinath et al.,
// HPCA'07 — the Bingo paper's reference [41]) as a wrapper around any
// prefetcher: prefetch outcomes (useful use vs unused eviction) are
// accumulated over epochs, and the wrapped prefetcher's issue rate is
// throttled when measured accuracy falls below thresholds. This is the
// classic bandwidth-protection mechanism the paper's §I motivates when it
// argues that multi-core designs "hit the bandwidth wall first".
package fdp

import (
	"fmt"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
)

// Config parameterises the throttle.
type Config struct {
	// EpochOutcomes is how many resolved prefetch outcomes close an epoch.
	EpochOutcomes uint64
	// HighAccuracy / LowAccuracy bound the throttle decisions: accuracy
	// above High raises the degree cap, below Low lowers it.
	HighAccuracy float64
	LowAccuracy  float64
	// MaxDegree / MinDegree bound the per-access issue cap.
	MaxDegree int
	MinDegree int
}

// DefaultConfig follows the original proposal's spirit: 90%/40% accuracy
// thresholds over 256-outcome epochs.
func DefaultConfig() Config {
	return Config{
		EpochOutcomes: 256,
		HighAccuracy:  0.90,
		LowAccuracy:   0.40,
		MaxDegree:     32,
		MinDegree:     1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.EpochOutcomes == 0 {
		return fmt.Errorf("fdp: epoch must be positive")
	}
	if c.LowAccuracy >= c.HighAccuracy || c.LowAccuracy < 0 || c.HighAccuracy > 1 {
		return fmt.Errorf("fdp: need 0 ≤ low < high ≤ 1, got %v/%v", c.LowAccuracy, c.HighAccuracy)
	}
	if c.MinDegree < 1 || c.MaxDegree < c.MinDegree {
		return fmt.Errorf("fdp: need 1 ≤ min ≤ max degree, got %d/%d", c.MinDegree, c.MaxDegree)
	}
	return nil
}

// Stats exposes the throttle's behaviour.
type Stats struct {
	Epochs    uint64
	Raised    uint64
	Lowered   uint64
	Truncated uint64 // predictions dropped by the degree cap
}

// FDP wraps an inner prefetcher with accuracy-feedback throttling. It
// implements both prefetch.Prefetcher and the cache outcome observer.
type FDP struct {
	cfg    Config
	inner  prefetch.Prefetcher
	degree int

	useful uint64
	total  uint64
	stats  Stats
}

// New wraps inner with the given throttle configuration.
func New(cfg Config, inner prefetch.Prefetcher) (*FDP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("fdp: inner prefetcher must not be nil")
	}
	return &FDP{cfg: cfg, inner: inner, degree: cfg.MaxDegree}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config, inner prefetch.Prefetcher) *FDP {
	f, err := New(cfg, inner)
	if err != nil {
		panic(err)
	}
	return f
}

// Factory wraps each instance produced by the inner factory.
func Factory(cfg Config, inner prefetch.Factory) prefetch.Factory {
	return func(core int) prefetch.Prefetcher { return MustNew(cfg, inner(core)) }
}

// Name implements prefetch.Prefetcher.
func (f *FDP) Name() string { return "fdp(" + f.inner.Name() + ")" }

// Degree returns the current per-access issue cap.
func (f *FDP) Degree() int { return f.degree }

// Stats returns a snapshot of the throttle counters.
func (f *FDP) Stats() Stats { return f.stats }

// OnAccess implements prefetch.Prefetcher: the inner prediction list is
// truncated to the current degree cap.
func (f *FDP) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	addrs := f.inner.OnAccess(ev)
	if len(addrs) > f.degree {
		f.stats.Truncated += uint64(len(addrs) - f.degree)
		addrs = addrs[:f.degree]
	}
	return addrs
}

// OnEviction implements prefetch.Prefetcher.
func (f *FDP) OnEviction(addr mem.Addr) { f.inner.OnEviction(addr) }

// StorageBytes implements prefetch.Prefetcher: the wrapper costs two
// counters and a degree register.
func (f *FDP) StorageBytes() int { return f.inner.StorageBytes() + 8 }

// OnPrefetchOutcome receives the fate of one prefetched line from the
// cache and, at epoch boundaries, adjusts the degree cap.
func (f *FDP) OnPrefetchOutcome(useful bool) {
	f.total++
	if useful {
		f.useful++
	}
	if f.total < f.cfg.EpochOutcomes {
		return
	}
	acc := float64(f.useful) / float64(f.total)
	switch {
	case acc >= f.cfg.HighAccuracy && f.degree < f.cfg.MaxDegree:
		f.degree *= 2
		if f.degree > f.cfg.MaxDegree {
			f.degree = f.cfg.MaxDegree
		}
		f.stats.Raised++
	case acc < f.cfg.LowAccuracy && f.degree > f.cfg.MinDegree:
		f.degree /= 2
		if f.degree < f.cfg.MinDegree {
			f.degree = f.cfg.MinDegree
		}
		f.stats.Lowered++
	}
	f.stats.Epochs++
	// Halve the counters instead of clearing: an exponential moving
	// window that keeps some history across epochs.
	f.useful /= 2
	f.total /= 2
}

var _ prefetch.Prefetcher = (*FDP)(nil)
var _ prefetch.OutcomeObserver = (*FDP)(nil)
