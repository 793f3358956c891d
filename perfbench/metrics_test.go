package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"bingo/internal/harness"
)

// fakeSamples builds one timed and one traced sample with every field a
// metric is computed from, as a pass would fill them.
func fakeSamples() (timed, traced sample) {
	rep := &childReport{
		Cells: 1, WindowInstr: 2e6, MeasureS: 0.5, WallS: 1, SetupS: 0.01, PeakRSSMB: 60,
		MPKIErr: 1.5, SpeedupErr: 1.1,
		Counts: simCounts(nil, harness.DefaultRunOptions(), 0),
	}
	timed = sample{rep: rep}
	trep := *rep
	trep.Layers = newTracer().layers()
	trep.WallS = 1.2
	traced = sample{rep: &trep, profile: map[string]float64{}}
	return timed, traced
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// checkNames checks that every reported metric has a valid, unique name
// and that the reported names and units are exactly the declared ones.
func checkNames(t *testing.T, what string, ms []metric, want []string) {
	t.Helper()
	seen := make(map[string]bool)
	var got []string
	for _, m := range ms {
		if !validMetricName(m.name) {
			t.Errorf("%s metric %q: name does not match [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", what, m.name)
		}
		if seen[m.name] {
			t.Errorf("%s metric %q reported twice", what, m.name)
		}
		seen[m.name] = true
		got = append(got, m.name+" "+m.unit)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s metrics differ from BENCHMARK.json\nreported:\n%s\ndeclared:\n%s", what,
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestMetricNamesMatchDeclaration(t *testing.T) {
	timed, traced := fakeSamples()
	checkNames(t, "end-to-end", endToEnd([]sample{timed}), declared(t, "end_to_end"))
	checkNames(t, "per-layer", perLayer([]sample{timed}, []sample{traced}), declared(t, "per_layer"))
}

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"wall_s", "prefetchers.sms.on_access_ns", "9lives", "a-b.c_d"} {
		if !validMetricName(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "x%", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func TestEndToEndNeutralSpeedupErr(t *testing.T) {
	timed, _ := fakeSamples()
	timed.rep.SpeedupErr = 0 // a workload with no recorded reference
	for _, m := range endToEnd([]sample{timed}) {
		if m.name == "speedup_err" && m.value != 1 {
			t.Errorf("speedup_err without a reference = %v, want 1", m.value)
		}
		if m.value == 0 {
			t.Errorf("end-to-end metric %s reads 0", m.name)
		}
	}
}
