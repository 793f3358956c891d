//go:build !san

package prefetch

// sanState is the per-table checker state of the runtime invariant
// sanitizer. Without the `san` build tag it is empty and the hooks are
// no-ops the compiler inlines away. See internal/san and sancheck_san.go.
type sanState struct{}

func (t *Table[V]) sanAfterInsert(key uint64) {}

func sanCheckFootprint(f Footprint, blocks int) {}

// trackerSan is the per-tracker checker state; empty without the tag.
type trackerSan struct{}

func (rt *RegionTracker) sanAfterInsert() {}
