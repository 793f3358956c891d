package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"bingo/internal/core"
	"bingo/internal/harness"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// Set-up is measured after the timed pass by building every cell again
// several times: at least minSetupBuilds times, and more (up to
// maxSetupBuilds) while a cell's builds have taken under setupProbeTime.
// A SPEC-mix cell builds in about a millisecond, so one build per process
// is mostly noise; a Zeus cell takes over 100 ms, so three suffice.
const (
	minSetupBuilds = 3
	maxSetupBuilds = 15
	setupProbeTime = 50 * time.Millisecond
)

// childReport is what one sample process hands back to the benchmark
// driver, as one JSON document on its standard output.
type childReport struct {
	Cells        int      `json:"cells"`
	Failures     []string `json:"failures"`
	WindowInstr  uint64   `json:"window_instr"`
	WarmupS      float64  `json:"warmup_s"`
	MeasureS     float64  `json:"measure_s"`
	WallS        float64  `json:"wall_s"`
	SetupS       float64  `json:"setup_s"`
	PassSetupS   float64  `json:"pass_setup_s"`
	RenderS      float64  `json:"render_s"`
	PeakRSSMB    float64  `json:"peak_rss_mb"`
	MPKIErr      float64  `json:"mpki_err"`
	SpeedupErr   float64  `json:"speedup_err"` // 0: no recorded reference
	Digest       string   `json:"digest"`
	CellRequests int      `json:"cell_requests"`
	// Counts are the simulated per-layer statistics; they must repeat
	// exactly between processes, traced or not.
	Counts map[string]float64 `json:"counts"`
	// Layers are the host-time per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"-"`
}

// cell is one (application, prefetcher) simulation of a workload.
type cell struct {
	spec workloads.Spec
	pf   string
}

func cellsOf(w benchWorkload) ([]cell, error) {
	apps := w.apps
	if apps == nil {
		apps = workloads.Names()
	}
	var out []cell
	for _, app := range apps {
		spec, ok := workloads.ByName(app)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", app)
		}
		for _, pf := range w.pfs {
			out = append(out, cell{spec: spec, pf: pf})
		}
	}
	return out, nil
}

// cellOutcome is everything kept from one finished cell.
type cellOutcome struct {
	cell
	res      system.Results
	engine   system.EngineStats
	bingo    core.Stats
	hasBingo bool
	dur      time.Duration // set-up + warm-up + measurement
}

// runChild runs one pass over w's cells in this process and reports it.
// tr is nil for a timed sample; a traced sample decorates the sources
// and prefetchers and records spans.
func runChild(w benchWorkload, seed int64, tr *tracer) (*childReport, error) {
	cells, err := cellsOf(w)
	if err != nil {
		return nil, err
	}
	opts := w.opts(seed)
	rep := &childReport{Cells: len(cells)}
	outs := make([]cellOutcome, 0, len(cells))

	start := time.Now()
	root := tr.begin("perfbench.workload", w.name)
	for _, c := range cells {
		o, err := runCell(c, opts, tr, rep)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	var tables []byte
	if len(w.render) > 0 {
		tables, err = renderTables(w, opts, outs, tr, rep)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	rep.WallS = time.Since(start).Seconds()
	// Read the peak before the set-up probe below can raise it.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB

	// Everything below is outside the timed pass.
	set := &cellSet{res: make(map[[2]string]system.Results)}
	for _, o := range outs {
		if o.pf == "none" {
			set.apps = append(set.apps, o.spec.Name)
		}
		set.res[[2]string{o.spec.Name, o.pf}] = o.res
		rep.WindowInstr += o.res.WindowInstructions
		rep.Failures = append(rep.Failures, checkCell(o, opts)...)
	}
	paper := make(map[string]float64)
	for _, s := range workloads.All() {
		paper[s.Name] = s.PaperMPKI
	}
	if rep.MPKIErr, err = set.mpkiErr(paper); err != nil {
		return nil, err
	}
	if w.speedupRefs != nil {
		m, p := w.speedupRefs(set)
		if rep.SpeedupErr, err = ratioErrGeomean(m, p); err != nil {
			return nil, err
		}
	}
	rep.Digest = digest(outs, tables)
	rep.Counts = simCounts(outs, opts, rep.CellRequests)
	if tr != nil {
		rep.Layers = tr.layers()
		rep.Spans = tr.rec.spans
		return rep, nil
	}
	if rep.SetupS, err = measureSetup(cells, opts); err != nil {
		return nil, err
	}
	return rep, nil
}

// runCell builds one cell's system and simulates its warm-up and
// measurement, timing each phase.
func runCell(c cell, opts harness.RunOptions, tr *tracer, rep *childReport) (cellOutcome, error) {
	spec := c.spec
	factory, err := harness.FactoryByName(c.pf)
	if err != nil {
		return cellOutcome{}, err
	}
	if tr != nil {
		spec = tr.wrapSpec(spec)
		factory = tr.wrapFactory(c.pf, factory)
	}
	id := tr.begin("harness.cell", spec.Name+"/"+c.pf)
	defer tr.end(id)

	t0 := time.Now()
	sp := tr.begin("system.new", "")
	sys, err := harness.BuildSystem(spec, factory, opts)
	tr.end(sp)
	if err != nil {
		return cellOutcome{}, err
	}
	t1 := time.Now()
	sp = tr.begin("system.warmup", "")
	sys.RunWarmup()
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("system.measure", "")
	res, paused := sys.RunResumable()
	tr.end(sp)
	t3 := time.Now()
	if paused {
		return cellOutcome{}, fmt.Errorf("%s/%s: run paused without an advance hook", c.spec.Name, c.pf)
	}
	rep.PassSetupS += t1.Sub(t0).Seconds()
	rep.WarmupS += t2.Sub(t1).Seconds()
	rep.MeasureS += t3.Sub(t2).Seconds()

	o := cellOutcome{cell: c, res: res, engine: sys.EngineStats(), dur: t3.Sub(t0)}
	for _, p := range sys.Prefetchers() {
		if b, ok := unwrap(p).(*core.Bingo); ok {
			s := b.Stats()
			o.hasBingo = true
			o.bingo.Triggers += s.Triggers
			o.bingo.LongMatches += s.LongMatches
			o.bingo.ShortMatches += s.ShortMatches
			o.bingo.NoMatches += s.NoMatches
			o.bingo.Trained += s.Trained
			o.bingo.Issued += s.Issued
		}
	}
	return o, nil
}

// renderTables memoises the finished cells in a suite matrix and renders
// the workload's experiments from it, as `experiments -exp ... -fast
// -j 1` would after simulating the same cells.
func renderTables(w benchWorkload, opts harness.RunOptions, outs []cellOutcome, tr *tracer, rep *childReport) ([]byte, error) {
	cfg := harness.SuiteConfig{Experiments: w.render, Opts: opts, Jobs: 1, BudgetLabel: "fast"}
	names, err := cfg.Selected()
	if err != nil {
		return nil, err
	}
	m, _, err := harness.NewSuiteMatrix(cfg)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		m.Inject(harness.CellKey{Workload: o.spec.Name, Prefetcher: o.pf}, o.res, nil, o.dur)
	}
	// Requests count every cell each experiment asks for; the matrix
	// memoises them down to the distinct cells simulated.
	for _, name := range names {
		rep.CellRequests += len(harness.PlanExperiments([]string{name}, m))
	}
	var buf bytes.Buffer
	t0 := time.Now()
	sp := tr.begin("harness.render", "")
	err = harness.RenderTables(&buf, cfg, m, names)
	tr.end(sp)
	rep.RenderS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if m.Runs() != len(outs) {
		// Rendering needed a cell the workload did not run; it would have
		// been simulated inside the render phase.
		return nil, fmt.Errorf("rendering %v simulated %d cells beyond the workload's %d", names, m.Runs()-len(outs), len(outs))
	}
	return buf.Bytes(), nil
}

// checkCell returns one failure line per output check the cell breaks.
func checkCell(o cellOutcome, opts harness.RunOptions) []string {
	label := o.spec.Name + "/" + o.pf
	var out []string
	if !o.res.Timeliness.Conserves() {
		out = append(out, label+": prefetch lifecycle does not conserve")
	}
	if len(o.res.PerCore) != opts.System.NumCores {
		out = append(out, fmt.Sprintf("%s: %d core results for %d cores", label, len(o.res.PerCore), opts.System.NumCores))
	}
	for i, c := range o.res.PerCore {
		if c.Instructions < opts.System.MeasureInstr {
			out = append(out, fmt.Sprintf("%s: core %d retired %d of %d measured instructions", label, i, c.Instructions, opts.System.MeasureInstr))
		}
	}
	return out
}

// digest hashes every simulated statistic of the pass (each cell's
// Results and Bingo counters, in cell order) and the rendered tables.
// Engine advance counts are left out: they describe the clock-advance
// strategy, not the simulated machine.
func digest(outs []cellOutcome, tables []byte) string {
	h := sha256.New()
	for _, o := range outs {
		doc := struct {
			Workload, Prefetcher string
			Results              system.Results
			Bingo                *core.Stats `json:",omitempty"`
		}{Workload: o.spec.Name, Prefetcher: o.pf, Results: o.res}
		if o.hasBingo {
			doc.Bingo = &o.bingo
		}
		b, err := json.Marshal(doc)
		if err != nil {
			panic(err) // plain data: cannot fail
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	h.Write(tables)
	return hex.EncodeToString(h.Sum(nil))
}

// measureSetup builds every cell several times and sums the per-cell
// median build times. The collector is paused for the whole probe and
// run by hand before each build, so every build starts from a collected
// heap whose pages the process already holds: its time is the
// construction work and the zeroing of what it allocates, not where in a
// collection cycle it happened to start or whether the runtime had just
// handed pages back to the kernel.
func measureSetup(cells []cell, opts harness.RunOptions) (float64, error) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	var total float64
	for _, c := range cells {
		var times []float64
		var spent time.Duration
		for len(times) < minSetupBuilds || (len(times) < maxSetupBuilds && spent < setupProbeTime) {
			d, err := timeBuild(c, opts)
			if err != nil {
				return 0, err
			}
			times = append(times, d.Seconds())
			spent += d
		}
		total += median(times)
	}
	return total, nil
}

func timeBuild(c cell, opts harness.RunOptions) (time.Duration, error) {
	factory, err := harness.FactoryByName(c.pf)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	sys, err := harness.BuildSystem(c.spec, factory, opts)
	d := time.Since(t0)
	runtime.KeepAlive(sys)
	return d, err
}

// simCounts derives the simulated per-layer statistics of a pass. They
// are functions of the simulated runs alone, so they repeat exactly.
func simCounts(outs []cellOutcome, opts harness.RunOptions, cellRequests int) map[string]float64 {
	var instr, cycles, stall, window uint64
	var l1acc, l1miss, llcAcc, llcMiss uint64
	var dramReads, dramWrites, rowHits, busBusy, busCycles uint64
	var advances, skipped uint64
	var issued, fills, useful, late, dropped uint64
	var covNum, covDen uint64
	var triggers, long, short uint64
	base := make(map[string]uint64) // baseline LLC misses by app
	for _, o := range outs {
		if o.pf == "none" {
			base[o.spec.Name] = o.res.LLC.Misses
		}
	}
	for _, o := range outs {
		r := o.res
		for _, c := range r.PerCore {
			instr += c.Instructions
			cycles += c.Cycles
			stall += c.MemStall
		}
		for _, l1 := range r.L1 {
			l1acc += l1.Accesses
			l1miss += l1.Misses
		}
		window += r.WindowInstructions
		llcAcc += r.LLC.Accesses
		llcMiss += r.LLC.Misses
		dramReads += r.DRAM.Reads
		dramWrites += r.DRAM.Writes
		rowHits += r.DRAM.RowHits
		busBusy += r.DRAM.BusBusy
		busCycles += r.TotalCycles * uint64(opts.System.DRAM.Channels)
		advances += o.engine.Advances
		skipped += o.engine.SkippedCycles
		if o.pf != "none" {
			t := r.Timeliness
			issued += t.Issued
			fills += t.Fills
			useful += t.Timely + t.Late
			late += t.Late
			dropped += t.QueueDropped
			b := base[o.spec.Name]
			covDen += b
			if r.LLC.Misses < b {
				covNum += b - r.LLC.Misses
			}
		}
		if o.hasBingo {
			triggers += o.bingo.Triggers
			long += o.bingo.LongMatches
			short += o.bingo.ShortMatches
		}
	}
	return map[string]float64{
		"cpu.ipc":                   frac(instr, cycles),
		"cpu.mem_stall_frac":        frac(stall, cycles),
		"cache.l1_miss_rate":        frac(l1miss, l1acc),
		"cache.llc_accesses":        float64(llcAcc),
		"cache.llc_mpki":            1000 * frac(llcMiss, window),
		"dram.reads":                float64(dramReads),
		"dram.row_hit_rate":         frac(rowHits, dramReads+dramWrites),
		"dram.bus_busy_frac":        frac(busBusy, busCycles),
		"system.advances":           float64(advances),
		"system.skipped_cycles_pct": 100 * frac(skipped, advances+skipped),
		"prefetch.issued":           float64(issued),
		"prefetch.accuracy":         frac(useful, fills),
		"prefetch.coverage":         frac(covNum, covDen),
		"prefetch.late_frac":        frac(late, useful),
		"prefetch.queue_dropped":    float64(dropped),
		"core.long_matches":         float64(long),
		"core.short_matches":        float64(short),
		"core.match_prob":           frac(long+short, triggers),
		"harness.cells":             float64(len(outs)),
		"harness.cell_requests":     float64(max(cellRequests, len(outs))),
	}
}

// layers reports the host-time per-layer metrics of a traced pass.
func (t *tracer) layers() map[string]float64 {
	self := selfTimes(t.rec.spans)
	out := map[string]float64{
		"workloads.gen_s":     self["workloads.gen"].Seconds(),
		"system.new_s":        self["system.new"].Seconds(),
		"system.warmup_s":     self["system.warmup"].Seconds(),
		"system.measure_s":    self["system.measure"].Seconds(),
		"harness.render_s":    self["harness.render"].Seconds(),
		"workloads.next_ns":   t.next.meanNS(),
		"core.on_access_ns":   meanOf(t.onAccess["bingo"]),
		"core.on_eviction_ns": meanOf(t.onEvict["bingo"]),
	}
	for _, name := range baselinePrefetchers {
		out["prefetchers."+name+".on_access_ns"] = meanOf(t.onAccess[name])
	}
	return out
}

// baselinePrefetchers are the paper's five prior prefetchers, which live
// under prefetchers/*.
var baselinePrefetchers = []string{"sms", "ampm", "bop", "spp", "vldp"}

func meanOf(c *callStat) float64 {
	if c == nil {
		return 0
	}
	return c.meanNS()
}

// begin and end are the span calls of the cell loop; on a nil tracer
// (a timed sample) they do nothing.
func (t *tracer) begin(name, label string) int {
	if t == nil {
		return 0
	}
	return t.rec.begin(name, label)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}
