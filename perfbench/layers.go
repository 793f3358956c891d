package main

import (
	"time"

	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/trace"
	"bingo/internal/workloads"
)

// callStat accumulates the host time of one kind of call.
type callStat struct {
	calls uint64
	total time.Duration
}

func (c *callStat) add(d time.Duration) {
	c.calls++
	c.total += d
}

// meanNS is the mean call time in nanoseconds (0 when never called).
func (c *callStat) meanNS() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.total.Nanoseconds()) / float64(c.calls)
}

// tracer instruments the seams the simulator exposes to callers: the
// trace.Source each core reads, and the prefetch.Factory whose
// instances see every attach-level access and eviction. It also records
// the spans around each phase of a cell. Only the traced run uses it;
// timed runs call the simulator undecorated.
type tracer struct {
	rec      *recorder
	next     callStat
	onAccess map[string]*callStat // by prefetcher name
	onEvict  map[string]*callStat
}

func newTracer() *tracer {
	return &tracer{
		rec:      newRecorder(),
		onAccess: make(map[string]*callStat),
		onEvict:  make(map[string]*callStat),
	}
}

// wrapSpec returns a copy of w whose sources are built inside a
// "workloads.gen" span and whose every Next call is timed.
func (t *tracer) wrapSpec(w workloads.Spec) workloads.Spec {
	inner := w.Sources
	w.Sources = func(cores int, seed int64) []trace.Source {
		id := t.rec.begin("workloads.gen", w.Name)
		srcs := inner(cores, seed)
		t.rec.end(id)
		for i, s := range srcs {
			srcs[i] = &timedSource{src: s, st: &t.next}
		}
		return srcs
	}
	return w
}

// wrapFactory times every OnAccess and OnEviction of the prefetchers f
// builds. The nil factory (no prefetcher) stays nil: wrapping it would
// make the system build prefetch queues and a lifecycle tracker, which
// is a different machine.
func (t *tracer) wrapFactory(name string, f prefetch.Factory) prefetch.Factory {
	if f == nil {
		return nil
	}
	acc, ev := t.onAccess[name], t.onEvict[name]
	if acc == nil {
		acc, ev = &callStat{}, &callStat{}
		t.onAccess[name], t.onEvict[name] = acc, ev
	}
	return func(core int) prefetch.Prefetcher {
		return &timedPrefetcher{inner: f(core), acc: acc, ev: ev}
	}
}

type timedSource struct {
	src trace.Source
	st  *callStat
}

func (s *timedSource) Next() (trace.Record, bool) {
	t0 := time.Now()
	r, ok := s.src.Next()
	s.st.add(time.Since(t0))
	return r, ok
}

// timedPrefetcher decorates one per-core prefetcher instance.
type timedPrefetcher struct {
	inner   prefetch.Prefetcher
	acc, ev *callStat
}

func (p *timedPrefetcher) Name() string      { return p.inner.Name() }
func (p *timedPrefetcher) StorageBytes() int { return p.inner.StorageBytes() }

func (p *timedPrefetcher) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	t0 := time.Now()
	out := p.inner.OnAccess(ev)
	p.acc.add(time.Since(t0))
	return out
}

func (p *timedPrefetcher) OnEviction(addr mem.Addr) {
	t0 := time.Now()
	p.inner.OnEviction(addr)
	p.ev.add(time.Since(t0))
}

// OnPrefetchOutcome forwards outcome feedback to prefetchers that take
// it, so decorating never changes what a feedback-directed prefetcher
// sees.
func (p *timedPrefetcher) OnPrefetchOutcome(useful bool) {
	if o, ok := p.inner.(prefetch.OutcomeObserver); ok {
		o.OnPrefetchOutcome(useful)
	}
}

// unwrap returns the undecorated prefetcher behind p, if p is decorated.
func unwrap(p prefetch.Prefetcher) prefetch.Prefetcher {
	if t, ok := p.(*timedPrefetcher); ok {
		return t.inner
	}
	return p
}
