package harness

import (
	"strings"
	"testing"

	"bingo/internal/workloads"
)

// tinyOptions shrinks budgets so harness tests stay fast. The simulated
// machine is also shrunk: a 512 KB LLC reaches steady state quickly.
func tinyOptions() RunOptions {
	opts := DefaultRunOptions()
	opts.System.LLC.SizeBytes = 512 * 1024
	opts.System.WarmupInstr = 20_000
	opts.System.MeasureInstr = 50_000
	return opts
}

func TestRegistryResolvesAllNames(t *testing.T) {
	for _, name := range PrefetcherNames() {
		f, err := FactoryByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" {
			if f != nil {
				t.Fatal("none should yield a nil factory")
			}
			continue
		}
		p := f(0)
		if p == nil || p.Name() == "" {
			t.Fatalf("%s built an invalid prefetcher", name)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := FactoryByName("bogus"); err == nil {
		t.Fatal("unknown prefetcher should error")
	}
}

func TestPaperPrefetchersRegistered(t *testing.T) {
	if len(PaperPrefetchers()) != 6 {
		t.Fatal("the paper compares six prefetchers")
	}
	for _, name := range PaperPrefetchers() {
		if _, err := FactoryByName(name); err != nil {
			t.Fatalf("paper prefetcher %s missing: %v", name, err)
		}
	}
}

func TestRunProducesConsistentResults(t *testing.T) {
	w, _ := workloads.ByName("Streaming")
	opts := tinyOptions()
	a, err := RunNamed(w, "bingo", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNamed(w, "bingo", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() != b.Throughput() || a.LLC != b.LLC {
		t.Fatal("identical runs must be deterministic")
	}
	if a.PrefetcherName != "bingo" {
		t.Fatalf("prefetcher name = %q", a.PrefetcherName)
	}
}

func TestMatrixMemoises(t *testing.T) {
	m := NewMatrix(tinyOptions())
	w, _ := workloads.ByName("SATSolver")
	a, err := m.Get(w, "none")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("matrix should memoise runs")
	}
	if _, err := m.Get(w, "bogus"); err == nil {
		t.Fatal("unknown prefetcher should propagate the error")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"A", "LongHeader"}}
	tbl.AddRow("x", "y")
	tbl.AddRow("longcell", "z")
	tbl.AddNote("n=%d", 42)
	out := tbl.String()
	for _, want := range []string{"== T ==", "LongHeader", "longcell", "note: n=42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns align: the separator row matches header width.
	if !strings.Contains(out, "--------") {
		t.Fatal("separator missing")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if pct(0.1234) != "12.3%" {
		t.Fatalf("pct = %q", pct(0.1234))
	}
	if speedupPct(1.5) != "+50.0%" {
		t.Fatalf("speedupPct = %q", speedupPct(1.5))
	}
	if speedupPct(0.9) != "-10.0%" {
		t.Fatalf("speedupPct = %q", speedupPct(0.9))
	}
}

func TestAreaModel(t *testing.T) {
	a := DefaultAreaModel()
	base := a.BaselineMM2()
	if base <= 0 {
		t.Fatal("baseline area must be positive")
	}
	with := a.WithPrefetcherMM2(119 * 1024)
	if with <= base {
		t.Fatal("prefetcher storage must add area")
	}
	// Density improvement is below raw speedup but close for ~0.5 mm².
	d := a.DensityImprovement(1.60, 119*1024)
	if d >= 1.60 || d < 1.55 {
		t.Fatalf("density improvement = %v", d)
	}
	// Zero-storage prefetcher: density equals speedup.
	if a.DensityImprovement(1.3, 0) != 1.3 {
		t.Fatal("zero storage should not change density")
	}
}

func TestTable1Static(t *testing.T) {
	tbl := Table1(DefaultRunOptions())
	out := tbl.String()
	for _, want := range []string{"256-entry ROB", "8 MB", "37.5 GB/s", "random first-touch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q", want)
		}
	}
}

func TestFig6SizesDefault(t *testing.T) {
	if len(Fig6Sizes) != 7 || Fig6Sizes[0] != 1024 || Fig6Sizes[6] != 65536 {
		t.Fatalf("Fig6Sizes = %v", Fig6Sizes)
	}
}

// TestExperimentsSmoke runs the simulation-backed experiments end to end
// at a tiny scale, checking structure rather than values.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is seconds-long; skipped in -short")
	}
	opts := tinyOptions()
	m := NewMatrix(opts)

	t2, err := Table2(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 10 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}

	f7, err := Fig7(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 10*6+6 {
		t.Fatalf("Fig7 rows = %d", len(f7.Rows))
	}

	f8, err := Fig8(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 11 || f8.Rows[10][0] != "GMean" {
		t.Fatalf("Fig8 shape wrong: %d rows", len(f8.Rows))
	}

	f9, err := Fig9(m, DefaultAreaModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 6 {
		t.Fatalf("Fig9 rows = %d", len(f9.Rows))
	}

	f3, err := Fig3(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != 5 {
		t.Fatalf("Fig3 rows = %d", len(f3.Rows))
	}
}

func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	tbl, err := Fig4(NewMatrix(tinyOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 || tbl.Rows[10][0] != "Average" {
		t.Fatalf("Fig4 shape wrong: %d rows", len(tbl.Rows))
	}
}

func TestTableCSVAndMarkdown(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"A", "B"}}
	tbl.AddRow("x,1", "y|2")
	tbl.AddNote("note")

	var csv strings.Builder
	tbl.RenderCSV(&csv)
	out := csv.String()
	if !strings.Contains(out, "# T") || !strings.Contains(out, `"x,1"`) {
		t.Fatalf("csv render:\n%s", out)
	}

	var md strings.Builder
	tbl.RenderMarkdown(&md)
	out = md.String()
	if !strings.Contains(out, "### T") || !strings.Contains(out, `y\|2`) || !strings.Contains(out, "| --- | --- |") {
		t.Fatalf("markdown render:\n%s", out)
	}
}

func TestSharedBingoRegistered(t *testing.T) {
	f, err := FactoryByName("bingo-shared")
	if err != nil {
		t.Fatal(err)
	}
	a := f(0)
	b := f(1)
	if a != b {
		t.Fatal("shared factory must hand out one instance")
	}
}

func TestGHBRegistered(t *testing.T) {
	f, err := FactoryByName("ghb")
	if err != nil {
		t.Fatal(err)
	}
	if f(0).Name() != "ghb-pcdc" {
		t.Fatal("ghb registry entry wrong")
	}
}

func TestAblateSharingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	m := NewMatrix(tinyOptions())
	tbl, err := AblateSharing(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("sharing ablation rows = %d", len(tbl.Rows))
	}
}

func TestSeedStats(t *testing.T) {
	st := newSeedStats([]float64{1.0, 2.0, 3.0})
	if st.Mean != 2.0 || st.Min != 1.0 || st.Max != 3.0 || st.N != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StdDev < 0.99 || st.StdDev > 1.01 {
		t.Fatalf("stddev = %v, want 1.0", st.StdDev)
	}
	if newSeedStats(nil).N != 0 {
		t.Fatal("empty stats")
	}
	if st.String() == "" {
		t.Fatal("String should render")
	}
}

func TestSpeedupOverSeedsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	w, _ := workloads.ByName("Streaming")
	st, err := SpeedupOverSeeds(w, "bingo", tinyOptions(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 2 || st.Mean <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAblateLevelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	tbl, err := AblateLevel(NewMatrix(tinyOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "LLC" || tbl.Rows[1][0] != "L1" {
		t.Fatalf("rows = %+v", tbl.Rows)
	}
}

func TestExtrasSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	m := NewMatrix(tinyOptions())
	tbl, err := Extras(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("extras rows = %d", len(tbl.Rows))
	}
}

func TestAblateTagsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	m := NewMatrix(tinyOptions())
	tbl, err := AblateTags(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || tbl.Rows[0][0] != "full-width" {
		t.Fatalf("tags ablation rows = %+v", tbl.Rows)
	}
}
