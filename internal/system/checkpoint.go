package system

import (
	"fmt"
	"io"

	"bingo/internal/checkpoint"
	"bingo/internal/telemetry"
)

// Section IDs of a system checkpoint, in write order: metadata, the
// system-level loop state, then one section per stateful component, and
// finally the telemetry collector. Per-core sections are indexed
// ("cpu[0]", "pf[2]", ...). The telemetry section is present in every
// checkpoint — a disabled collector writes a placeholder body — so the
// container layout does not depend on observability flags and a
// warm-start artifact saved without telemetry restores cleanly into a
// telemetry-enabled run (and vice versa).
const (
	sectionMeta      = "meta"
	sectionSystem    = "system"
	sectionVM        = "vm"
	sectionDRAM      = "dram"
	sectionLLC       = "llc"
	sectionTelemetry = "telemetry"
)

func sectionL1(core int) string  { return fmt.Sprintf("l1[%d]", core) }
func sectionCPU(core int) string { return fmt.Sprintf("cpu[%d]", core) }
func sectionPF(core int) string  { return fmt.Sprintf("pf[%d]", core) }

// Prefetcher section payload kinds: a full serialisation, or a reference
// to an earlier core's section when a factory shares one instance across
// cores (the shared-metadata ablation) — the instance is serialised once.
const (
	pfKindFull uint8 = iota
	pfKindRef
)

// saveSections registers every section of this system's checkpoint with
// fw. It is the single source of truth for the container layout, shared
// by SaveCheckpoint and CheckpointSchema.
func (s *System) saveSections(fw *checkpoint.FileWriter) error {
	add := func(id string, save func(*checkpoint.Writer) error) error {
		return fw.Add(id, save)
	}
	if err := add(sectionMeta, func(w *checkpoint.Writer) error {
		w.Version(1)
		w.String(fmt.Sprintf("%+v", s.cfg))
		name := "none"
		if s.pfs != nil {
			name = s.pfs[0].Name()
		}
		w.String(name)
		w.Int(len(s.cores))
		return w.Err()
	}); err != nil {
		return err
	}
	if err := add(sectionSystem, func(w *checkpoint.Writer) error {
		// v3: pfDropped became a per-core column.
		w.Version(3)
		w.U64(s.clock)
		w.U8(s.phase)
		w.U64(s.measureStart)
		w.U64s(s.pfDropped)
		// Freeze frames (empty until measurement begins). v2 freezes the
		// per-core L1 stats alongside the CPU stats — collect reads the
		// frame, so a restored run must reproduce it exactly.
		taken := make([]bool, len(s.snaps))
		snapU64 := func(get func(coreSnapshot) uint64) {
			col := make([]uint64, len(s.snaps))
			for i, sn := range s.snaps {
				col[i] = get(sn)
			}
			w.U64s(col)
		}
		for i, sn := range s.snaps {
			taken[i] = sn.taken
		}
		w.Bools(taken)
		snapU64(func(sn coreSnapshot) uint64 { return sn.cycle })
		snapU64(func(sn coreSnapshot) uint64 { return sn.stats.Instructions })
		snapU64(func(sn coreSnapshot) uint64 { return sn.stats.MemOps })
		snapU64(func(sn coreSnapshot) uint64 { return sn.stats.Loads })
		snapU64(func(sn coreSnapshot) uint64 { return sn.stats.Stores })
		snapU64(func(sn coreSnapshot) uint64 { return sn.stats.MemStall })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.Accesses })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.Hits })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.Misses })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.LateHits })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.PrefetchIssued })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.PrefetchFills })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.PrefetchHits })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.UsefulPrefetch })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.LatePrefetch })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.UnusedPrefetch })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.Evictions })
		snapU64(func(sn coreSnapshot) uint64 { return sn.l1.Writebacks })
		// Prefetch lifecycle counters (empty columns for the baseline).
		nlc := 0
		if s.lc != nil {
			nlc = s.lc.NumCores()
		}
		lcU64 := func(get func(telemetry.LifecycleStats) uint64) {
			col := make([]uint64, nlc)
			for i := 0; i < nlc; i++ {
				col[i] = get(s.lc.Core(i))
			}
			w.U64s(col)
		}
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.Issued })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.QueueDropped })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.Redundant })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.Fills })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.Timely })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.Late })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.UnusedEvicted })
		lcU64(func(t telemetry.LifecycleStats) uint64 { return t.InFlight })
		// Per-core prefetch queues, flattened with a length column.
		lens := make([]int, len(s.pfInflight))
		var flat []uint64
		for i, q := range s.pfInflight {
			lens[i] = len(q)
			flat = append(flat, q...)
		}
		w.Ints(lens)
		w.U64s(flat)
		return w.Err()
	}); err != nil {
		return err
	}
	if err := add(sectionVM, s.xlat.SaveState); err != nil {
		return err
	}
	if err := add(sectionDRAM, s.dram.SaveState); err != nil {
		return err
	}
	if err := add(sectionLLC, s.llc.SaveState); err != nil {
		return err
	}
	for i := range s.cores {
		if err := add(sectionL1(i), s.l1s[i].SaveState); err != nil {
			return err
		}
		if err := add(sectionCPU(i), s.cores[i].SaveState); err != nil {
			return err
		}
	}
	for i := range s.pfs {
		i := i
		if err := add(sectionPF(i), func(w *checkpoint.Writer) error {
			w.Version(1)
			if j := s.sharedPFIndex(i); j >= 0 {
				w.U8(pfKindRef)
				w.Int(j)
				return w.Err()
			}
			w.U8(pfKindFull)
			ck, ok := s.pfs[i].(checkpoint.Checkpointable)
			if !ok {
				return fmt.Errorf("system: prefetcher %q is not checkpointable", s.pfs[i].Name())
			}
			return ck.SaveState(w)
		}); err != nil {
			return err
		}
	}
	if err := add(sectionTelemetry, func(w *checkpoint.Writer) error {
		w.Version(1)
		w.Bool(s.tel != nil)
		tel := s.tel
		if tel == nil {
			// Zero-valued placeholder: the collector's column layout has a
			// fixed op sequence, so the schema is identical either way.
			tel = telemetry.NewCollector(0)
		}
		return tel.SaveState(w)
	}); err != nil {
		return err
	}
	return nil
}

// sharedPFIndex returns the lowest earlier core index holding the same
// prefetcher instance as core i, or -1 when core i's instance is its own.
func (s *System) sharedPFIndex(i int) int {
	for j := 0; j < i; j++ {
		if s.pfs[j] == s.pfs[i] {
			return j
		}
	}
	return -1
}

// SaveCheckpoint serialises the complete simulation state to out. The
// system remains runnable — checkpointing is read-only — so a run can
// save periodic snapshots while completing normally.
func (s *System) SaveCheckpoint(out io.Writer) error {
	fw := checkpoint.NewFileWriter()
	if err := s.saveSections(fw); err != nil {
		return err
	}
	_, err := fw.WriteTo(out)
	return err
}

// CheckpointSchema returns the section layout a checkpoint of this system
// would have: ids and field type strings. The golden-schema test pins it.
func (s *System) CheckpointSchema() ([]checkpoint.SectionSchema, error) {
	fw := checkpoint.NewFileWriter()
	if err := s.saveSections(fw); err != nil {
		return nil, err
	}
	return fw.Schema(), nil
}

// LoadCheckpoint restores a snapshot into this freshly built system. The
// system must have been assembled with the identical configuration,
// trace sources, and prefetcher factory as the one that saved it; the
// metadata section cross-checks what it can and everything restored is
// structurally validated before commit. On error the system is in an
// undefined state and must be discarded.
func (s *System) LoadCheckpoint(in io.Reader) error {
	if s.clock != 0 || s.phase != phaseWarmup {
		return fmt.Errorf("system: checkpoint restore requires a freshly built system")
	}
	fr, err := checkpoint.NewFileReader(in)
	if err != nil {
		return err
	}

	// The section list must match this system's layout exactly — a
	// snapshot from a differently shaped machine is rejected up front.
	fw := checkpoint.NewFileWriter()
	if err := s.saveSections(fw); err != nil {
		return err
	}
	want := fw.Schema()
	got := fr.Sections()
	if len(got) != len(want) {
		return fmt.Errorf("system: checkpoint holds %d sections, this machine writes %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].ID {
			return fmt.Errorf("system: checkpoint section %d is %q, want %q", i, got[i], want[i].ID)
		}
	}

	section := func(id string) (*checkpoint.Reader, error) { return fr.Section(id) }

	r, err := section(sectionMeta)
	if err != nil {
		return err
	}
	r.Version(1)
	cfgString := r.String()
	pfName := r.String()
	numCores := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if want := fmt.Sprintf("%+v", s.cfg); cfgString != want {
		return fmt.Errorf("system: checkpoint was taken with config %s, this machine has %s", cfgString, want)
	}
	wantName := "none"
	if s.pfs != nil {
		wantName = s.pfs[0].Name()
	}
	if pfName != wantName {
		return fmt.Errorf("system: checkpoint was taken with prefetcher %q, this machine runs %q", pfName, wantName)
	}
	if numCores != len(s.cores) {
		return fmt.Errorf("system: checkpoint machine had %d cores, this one has %d", numCores, len(s.cores))
	}

	r, err = section(sectionSystem)
	if err != nil {
		return err
	}
	r.Version(3)
	clock := r.U64()
	phase := r.U8()
	measureStart := r.U64()
	pfDropped := r.U64s()
	taken := r.Bools()
	snapCols := make([][]uint64, 18)
	for i := range snapCols {
		snapCols[i] = r.U64s()
	}
	lcCols := make([][]uint64, 8)
	for i := range lcCols {
		lcCols[i] = r.U64s()
	}
	lens := r.Ints()
	flat := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if phase > phaseDone {
		return fmt.Errorf("system: checkpoint phase %d unknown", phase)
	}
	if measureStart > clock {
		return fmt.Errorf("system: checkpoint measurement start %d beyond clock %d", measureStart, clock)
	}
	if len(pfDropped) != len(s.pfDropped) {
		return fmt.Errorf("system: checkpoint drop counters hold %d cores, want %d", len(pfDropped), len(s.pfDropped))
	}
	nSnaps := 0
	if phase >= phaseMeasure {
		nSnaps = len(s.cores)
	}
	if len(taken) != nSnaps {
		return fmt.Errorf("system: checkpoint snapshot columns hold %d cores, want %d in phase %d", len(taken), nSnaps, phase)
	}
	for i, col := range snapCols {
		if len(col) != nSnaps {
			return fmt.Errorf("system: checkpoint snapshot column %d holds %d cores, want %d in phase %d", i, len(col), nSnaps, phase)
		}
	}
	nlc := 0
	if s.lc != nil {
		nlc = s.lc.NumCores()
	}
	for i, col := range lcCols {
		if len(col) != nlc {
			return fmt.Errorf("system: checkpoint lifecycle column %d holds %d cores, machine tracks %d", i, len(col), nlc)
		}
	}
	if len(lens) != len(s.pfInflight) {
		return fmt.Errorf("system: checkpoint prefetch queues cover %d cores, machine has %d", len(lens), len(s.pfInflight))
	}
	total := 0
	for i, n := range lens {
		if n < 0 || n > s.cfg.PrefetchQueue {
			return fmt.Errorf("system: checkpoint prefetch queue %d holds %d entries, cap %d", i, n, s.cfg.PrefetchQueue)
		}
		total += n
	}
	if total != len(flat) {
		return fmt.Errorf("system: checkpoint prefetch queue column holds %d entries, lengths sum to %d", len(flat), total)
	}

	load := func(id string, c checkpoint.Checkpointable) error {
		r, err := section(id)
		if err != nil {
			return err
		}
		if err := c.LoadState(r); err != nil {
			return fmt.Errorf("section %s: %w", id, err)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("section %s: %w", id, err)
		}
		return nil
	}
	if err := load(sectionVM, s.xlat); err != nil {
		return err
	}
	if err := load(sectionDRAM, s.dram); err != nil {
		return err
	}
	if err := load(sectionLLC, s.llc); err != nil {
		return err
	}
	for i := range s.cores {
		if err := load(sectionL1(i), s.l1s[i]); err != nil {
			return err
		}
		if err := load(sectionCPU(i), s.cores[i]); err != nil {
			return err
		}
	}
	for i := range s.pfs {
		r, err := section(sectionPF(i))
		if err != nil {
			return err
		}
		r.Version(1)
		kind := r.U8()
		switch kind {
		case pfKindRef:
			j := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			// The fresh factory must share instances exactly as the saved
			// one did, or the snapshot's aliasing is unreproducible.
			if j != s.sharedPFIndex(i) {
				return fmt.Errorf("system: checkpoint shares prefetcher %d with core %d, this machine does not", i, j)
			}
		case pfKindFull:
			if err := r.Err(); err != nil {
				return err
			}
			if s.sharedPFIndex(i) >= 0 {
				return fmt.Errorf("system: checkpoint holds a private prefetcher for core %d, this machine shares it", i)
			}
			ck, ok := s.pfs[i].(checkpoint.Checkpointable)
			if !ok {
				return fmt.Errorf("system: prefetcher %q is not checkpointable", s.pfs[i].Name())
			}
			if err := ck.LoadState(r); err != nil {
				return fmt.Errorf("section %s: %w", sectionPF(i), err)
			}
		default:
			return fmt.Errorf("system: checkpoint prefetcher section kind %d unknown", kind)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("section %s: %w", sectionPF(i), err)
		}
	}

	// Telemetry section: present in every checkpoint. Restore strictly
	// into an attached collector when the snapshot carried one; otherwise
	// consume and frame-validate the body without keeping it.
	r, err = section(sectionTelemetry)
	if err != nil {
		return err
	}
	r.Version(1)
	telEnabled := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if telEnabled && s.tel != nil {
		if err := s.tel.LoadState(r); err != nil {
			return fmt.Errorf("section %s: %w", sectionTelemetry, err)
		}
	} else if err := telemetry.DiscardState(r); err != nil {
		return fmt.Errorf("section %s: %w", sectionTelemetry, err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("section %s: %w", sectionTelemetry, err)
	}

	// Commit the system-level state last: everything below here is
	// already validated.
	s.clock = clock
	s.phase = phase
	s.measureStart = measureStart
	s.pfDropped = pfDropped
	if phase >= phaseMeasure {
		s.snaps = make([]coreSnapshot, len(s.cores))
		for i := range s.snaps {
			s.snaps[i] = coreSnapshot{taken: taken[i], cycle: snapCols[0][i]}
			s.snaps[i].stats.Instructions = snapCols[1][i]
			s.snaps[i].stats.MemOps = snapCols[2][i]
			s.snaps[i].stats.Loads = snapCols[3][i]
			s.snaps[i].stats.Stores = snapCols[4][i]
			s.snaps[i].stats.MemStall = snapCols[5][i]
			s.snaps[i].l1.Accesses = snapCols[6][i]
			s.snaps[i].l1.Hits = snapCols[7][i]
			s.snaps[i].l1.Misses = snapCols[8][i]
			s.snaps[i].l1.LateHits = snapCols[9][i]
			s.snaps[i].l1.PrefetchIssued = snapCols[10][i]
			s.snaps[i].l1.PrefetchFills = snapCols[11][i]
			s.snaps[i].l1.PrefetchHits = snapCols[12][i]
			s.snaps[i].l1.UsefulPrefetch = snapCols[13][i]
			s.snaps[i].l1.LatePrefetch = snapCols[14][i]
			s.snaps[i].l1.UnusedPrefetch = snapCols[15][i]
			s.snaps[i].l1.Evictions = snapCols[16][i]
			s.snaps[i].l1.Writebacks = snapCols[17][i]
		}
	}
	for i := 0; i < nlc; i++ {
		s.lc.SetCore(i, telemetry.LifecycleStats{
			Issued:        lcCols[0][i],
			QueueDropped:  lcCols[1][i],
			Redundant:     lcCols[2][i],
			Fills:         lcCols[3][i],
			Timely:        lcCols[4][i],
			Late:          lcCols[5][i],
			UnusedEvicted: lcCols[6][i],
			InFlight:      lcCols[7][i],
		})
	}
	off := 0
	for i, n := range lens {
		s.pfInflight[i] = append(s.pfInflight[i][:0], flat[off:off+n]...)
		off += n
	}
	// A collector attached to this machine but absent from the snapshot
	// (a checkpoint saved without telemetry) joins the epoch grid at the
	// measurement start, so its series matches a cold telemetry-on run.
	if s.tel != nil && !telEnabled && s.phase >= phaseMeasure {
		s.tel.Resync(s.measureStart, s.clock)
	}
	return nil
}
