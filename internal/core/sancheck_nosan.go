//go:build !san

package core

// sanState is the per-history-table checker state of the runtime invariant
// sanitizer. Without the `san` build tag it is empty and the hooks are
// no-ops the compiler inlines away. See internal/san and sancheck_san.go.
type sanState struct{}

func (h *HistoryTable) sanCheckTrigger(triggerOffset int) {}

func (h *HistoryTable) sanAfterInsert(short uint64) {}
