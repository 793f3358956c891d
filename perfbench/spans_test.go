package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100 * ms},
		// Overlapping children covering [10, 50): 40 ms, counted once.
		{ID: 2, Parent: 1, Name: "system.new", Start: 10 * ms, End: 40 * ms},
		{ID: 7, Parent: 1, Name: "nested", Start: 12 * ms, End: 20 * ms},
		{ID: 3, Parent: 1, Name: "system.warmup", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "system.measure", Start: 90 * ms, End: 120 * ms},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "workloads.gen", Start: 15 * ms, End: 25 * ms},
		// A second root with no children keeps its whole duration.
		{ID: 6, Name: "harness.render", Start: 130 * ms, End: 137 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"cell":           100*ms - 40*ms - 10*ms,
		"system.new":     30*ms - 10*ms,
		"system.warmup":  20 * ms,
		"nested":         8 * ms,
		"system.measure": 30 * ms,
		"workloads.gen":  10 * ms,
		"harness.render": 7 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d span names, want %d: %v", len(got), len(want), got)
	}
}

func TestSelfTimesSumsSpansOfOneName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.cell", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "system.measure", Start: 2, End: 9},
		{ID: 3, Name: "harness.cell", Start: 10, End: 30},
		{ID: 4, Parent: 3, Name: "system.measure", Start: 10, End: 25},
	}
	got := selfTimes(spans)
	if got["harness.cell"] != 3+5 || got["system.measure"] != 7+15 {
		t.Errorf("got %v", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("perfbench.workload", "server")
	cell := r.begin("harness.cell", "em3d/bingo")
	sp := r.begin("system.new", "")
	r.end(sp)
	r.end(cell)
	r.end(root)
	if len(r.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(r.spans))
	}
	parents := []int{0, root, cell}
	for i, s := range r.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, parents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("closing spans out of order did not panic")
		}
	}()
	a := r.begin("a", "")
	r.begin("b", "")
	r.end(a)
}
