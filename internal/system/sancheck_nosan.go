//go:build !san

package system

// sanState is the per-system checker state of the runtime invariant
// sanitizer. Without the `san` build tag it is empty and the hooks are
// no-ops the compiler inlines away. See internal/san and sancheck_san.go.
type sanState struct{}

func (s *System) sanAtAdvance(prev, next uint64) {}

func (s *System) sanAtRunEntry() {}

func (s *System) sanAtIssue(core int, cycle, bound uint64) {}

func (s *System) sanAtCut(bound uint64) {}

func (s *System) sanAtPhaseEnd(last, bound uint64) {}

func (s *System) sanAtRunEnd() {}
