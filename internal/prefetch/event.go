package prefetch

import (
	"fmt"

	"bingo/internal/mem"
)

// EventKind enumerates the trigger-event heuristics studied in the paper's
// §III (Figure 2): which slice of the trigger access a footprint is
// associated with. Kinds are ordered from longest (most incidents must
// coincide, most accurate, least recurring) to shortest.
type EventKind int

const (
	// EventPCAddress is PC of the trigger instruction + full block address
	// (the longest event; Kumar & Wilkerson's SFP heuristic).
	EventPCAddress EventKind = iota
	// EventPCOffset is PC + offset of the block within its region (SMS's
	// heuristic).
	EventPCOffset
	// EventAddress is the trigger's block address alone.
	EventAddress
	// EventPC is the trigger instruction's PC alone.
	EventPC
	// EventOffset is the block offset within the region alone (the
	// shortest event).
	EventOffset
)

// AllEvents lists every event kind from longest to shortest, matching the
// x-axis of Figure 2 and the cascade order of Figure 3.
func AllEvents() []EventKind {
	return []EventKind{EventPCAddress, EventPCOffset, EventAddress, EventPC, EventOffset}
}

// String names the event kind as the paper does.
func (k EventKind) String() string {
	switch k {
	case EventPCAddress:
		return "PC+Address"
	case EventPCOffset:
		return "PC+Offset"
	case EventAddress:
		return "Address"
	case EventPC:
		return "PC"
	case EventOffset:
		return "Offset"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Key derives the lookup key of this event kind for a trigger access. The
// region geometry determines the offset component. Keys of different kinds
// inhabit disjoint spaces only by construction of their inputs; tables
// that mix kinds must tag entries with the kind as well.
func (k EventKind) Key(pc mem.PC, addr mem.Addr, rc mem.RegionConfig) uint64 {
	switch k {
	case EventPCAddress:
		return mem.Mix2(uint64(pc), addr.BlockNumber())
	case EventPCOffset:
		return mem.Mix2(uint64(pc), uint64(rc.BlockIndex(addr)))
	case EventAddress:
		return mem.Mix64(addr.BlockNumber())
	case EventPC:
		return mem.Mix64(uint64(pc))
	case EventOffset:
		return mem.Mix64(uint64(rc.BlockIndex(addr)))
	default:
		panic(fmt.Sprintf("prefetch: unknown event kind %d", int(k)))
	}
}

// Bits returns the approximate tag width of the event in a hardware
// implementation, used by storage accounting. PCs and addresses are
// charged at the truncated widths hardware tables actually store.
func (k EventKind) Bits(rc mem.RegionConfig) int {
	const pcBits, addrBits = 16, 26 // truncated, as in the authors' configuration
	offsetBits := int(mem.Log2(uint64(rc.Blocks())))
	switch k {
	case EventPCAddress:
		return pcBits + addrBits
	case EventPCOffset:
		return pcBits + offsetBits
	case EventAddress:
		return addrBits
	case EventPC:
		return pcBits
	case EventOffset:
		return offsetBits
	default:
		return 0
	}
}
