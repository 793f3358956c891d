package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratioErr is how far a measured value m is from a reference p as a
// symmetric factor: max(m/p, p/m), so 1 means exact agreement and an
// over- or under-estimate by the same factor scores the same.
func ratioErr(m, p float64) float64 {
	if m <= 0 || p <= 0 {
		return math.Inf(1)
	}
	if m >= p {
		return m / p
	}
	return p / m
}

// ratioErrGeomean is the geometric mean of ratioErr over measured and
// reference pairs. It errors when the slices differ in length or are
// empty, or when any value is not positive (a ratio is undefined).
func ratioErrGeomean(measured, reference []float64) (float64, error) {
	if len(measured) != len(reference) || len(measured) == 0 {
		return 0, fmt.Errorf("ratio error needs equal, non-empty lists (got %d measured, %d reference)", len(measured), len(reference))
	}
	var logSum float64
	for i := range measured {
		if measured[i] <= 0 || reference[i] <= 0 {
			return 0, fmt.Errorf("ratio error of %g against %g: values must be positive", measured[i], reference[i])
		}
		logSum += math.Log(ratioErr(measured[i], reference[i]))
	}
	return math.Exp(logSum / float64(len(measured))), nil
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// frac divides two counters, reading 0 for an empty denominator.
func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it
// starts with a letter or digit and uses at most 64 letters, digits,
// '_', '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
