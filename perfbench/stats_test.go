package main

import (
	"math"
	"testing"
)

func TestRatioErrGeomean(t *testing.T) {
	cases := []struct {
		name      string
		measured  []float64
		reference []float64
		want      float64
	}{
		{"exact", []float64{1.6, 1.11}, []float64{1.6, 1.11}, 1},
		{"over and under score alike", []float64{2, 0.5}, []float64{1, 1}, 2},
		{"geometric mean", []float64{4, 1}, []float64{1, 1}, 2},
		{"symmetric in m and p", []float64{3.85}, []float64{1.925}, 2},
		{"symmetric in m and p, swapped", []float64{1.925}, []float64{3.85}, 2},
	}
	for _, c := range cases {
		got, err := ratioErrGeomean(c.measured, c.reference)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatioErrGeomeanRejectsBadInput(t *testing.T) {
	bad := [][2][]float64{
		{{1, 2}, {1}},
		{nil, nil},
		{{0}, {1}},
		{{1}, {-1}},
	}
	for _, b := range bad {
		if _, err := ratioErrGeomean(b[0], b[1]); err == nil {
			t.Errorf("ratioErrGeomean(%v, %v): want an error", b[0], b[1])
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}
