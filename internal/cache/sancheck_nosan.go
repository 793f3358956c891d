//go:build !san

package cache

// sanState is the per-cache checker state of the runtime invariant
// sanitizer. Without the `san` build tag it is empty and every hook below
// is a no-op the compiler inlines away — the default build carries the
// call sites but none of the cost. See internal/san and sancheck_san.go.
type sanState struct{}

func (c *Cache) sanAfterAccess(now, ready uint64, si int, res Result) {}

func (c *Cache) sanAtInstall(now uint64, si int, tag uint32, meta uint64) {}

func (c *Cache) sanCheckVictim(now uint64, si, w int) {}
