//go:build !san

package cpu

// sanState is the per-core checker state of the runtime invariant
// sanitizer. Without the `san` build tag it is empty and the hooks are
// no-ops the compiler inlines away. See internal/san and sancheck_san.go.
type sanState struct{}

func (c *Core) sanAtTick(now uint64) {}

func (c *Core) sanAtRetire(now, completeAt uint64) {}

func (c *Core) sanAtStretch(now, k, bound uint64, nonMemLeft uint32, stall bool) {}
