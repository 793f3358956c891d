package harness

import (
	"testing"

	"bingo/internal/checkpoint"
)

// TestCheckpointSchemaGolden pins the checkpoint wire layout for a
// default-shaped (4-core) bingo system. Any change to this golden —
// reordered sections, a field added to a component's SaveState, a width
// change — alters the on-disk format and must be deliberate: bump the
// affected component's version constant (and, for container-level
// changes, checkpoint.FormatVersion), then update the expectation here.
// Old artifacts become unreadable, which is the intended fail-closed
// behaviour; warm stores simply regenerate.
func TestCheckpointSchemaGolden(t *testing.T) {
	if checkpoint.FormatVersion != 1 {
		t.Errorf("container FormatVersion = %d, golden pins 1; regenerate expectations deliberately", checkpoint.FormatVersion)
	}
	if checkpoint.Magic != "BINGOCKP" {
		t.Errorf("magic = %q, want BINGOCKP", checkpoint.Magic)
	}

	w := checkpointOracleWorkload(t)
	sys := buildFor(t, w, "bingo", tinyOptions())
	schema, err := sys.CheckpointSchema()
	if err != nil {
		t.Fatalf("CheckpointSchema: %v", err)
	}

	// Field strings are run-length-collapsed write-op tokens: "u64*6" is
	// six consecutive Writer.U64 calls, "u64s" one Writer.U64s slice,
	// "v1" a component version tag.
	cacheFields := "v1 u64*12 u64s bools*3 u64s i64s u8 u64 u64s"
	cpuFields := "v1 u64*5 i64*2 u64s bools u64s u64*2 u8 u32 bool*2 u32 bool u64*2"
	bingoFields := "v1 u8 v1 u64*6 v1 u64*3" + // section tag, pf kind, bingo stats, tracker stats
		" v1 u64 i64 bools u64s*5 i64s u64s" + // tracker filter table
		" v1 u64 i64 bools u64s*5 i64s u64s" + // tracker accumulation table
		" v1 u64*7 bools u64s*4 i64s" // unified history table
	// The system section (v2) freezes, per core: 6 CPU-stat columns, 12
	// L1-stat columns, and 8 prefetch-lifecycle columns (26 u64s), then
	// the prefetch queue lens + flat entries. The trailing telemetry
	// section is present in every checkpoint — enabled flag, collector
	// header, then 48 u64s columns (23 cumulative-Totals + 2 epoch-bound
	// + 23 series-Totals) and the registry's counter/gauge/histogram
	// name+value columns.
	telemetryFields := "v1 bool v1 u64 i64 bool*2 u64*3 u64s*48 str u64s str i64s str u64s*3"
	want := []checkpoint.SectionSchema{
		{ID: "meta", Fields: "v1 str*2 i64"},
		// v3: pfDropped widened from one shared u64 to a per-core u64s
		// column.
		{ID: "system", Fields: "v3 u64 u8 u64 u64s bools u64s*26 i64s u64s"},
		{ID: "vm", Fields: "v1 u64s*2 i64*2"},
		{ID: "dram", Fields: "v1 u64*6 u64s*3"},
		{ID: "llc", Fields: cacheFields},
		{ID: "l1[0]", Fields: cacheFields},
		{ID: "cpu[0]", Fields: cpuFields},
		{ID: "l1[1]", Fields: cacheFields},
		{ID: "cpu[1]", Fields: cpuFields},
		{ID: "l1[2]", Fields: cacheFields},
		{ID: "cpu[2]", Fields: cpuFields},
		{ID: "l1[3]", Fields: cacheFields},
		{ID: "cpu[3]", Fields: cpuFields},
		{ID: "pf[0]", Fields: bingoFields},
		{ID: "pf[1]", Fields: bingoFields},
		{ID: "pf[2]", Fields: bingoFields},
		{ID: "pf[3]", Fields: bingoFields},
		{ID: "telemetry", Fields: telemetryFields},
	}

	if len(schema) != len(want) {
		t.Fatalf("schema has %d sections, want %d:\n got %v", len(schema), len(want), sectionIDs(schema))
	}
	for i, s := range schema {
		if s.ID != want[i].ID {
			t.Errorf("section %d: ID = %q, want %q", i, s.ID, want[i].ID)
		}
		if s.Fields != want[i].Fields {
			t.Errorf("section %q: fields changed (format break!)\n got:  %s\n want: %s", s.ID, s.Fields, want[i].Fields)
		}
	}
}

func sectionIDs(schema []checkpoint.SectionSchema) []string {
	ids := make([]string, len(schema))
	for i, s := range schema {
		ids[i] = s.ID
	}
	return ids
}
