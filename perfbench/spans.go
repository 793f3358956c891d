package main

import (
	"sort"
	"time"
)

// span is one timed interval of the traced run. Parent is the ID of the
// enclosing span (0 for a root); times are offsets from the recorder's
// start so a written-out trace needs no clock to read.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory for the length of a traced run. Spans
// nest strictly: begin pushes onto a stack and end pops it, so a span's
// parent is whatever was open when it began. One goroutine drives it.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for the matching end.
func (r *recorder) begin(name, label string) int {
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Label: label, Start: time.Since(r.t0)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	r.open = r.open[:n-1]
	r.spans[id-1].End = time.Since(r.t0)
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover. Children
// that overlap each other are counted once, and any part of a child
// outside its parent is ignored.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
