// Package dram models main memory timing: per-channel data buses with
// finite bandwidth, per-bank row buffers with open-page policy, and the
// activate/precharge/CAS latency components. The default configuration
// matches the paper's evaluation platform — two channels, 37.5 GB/s peak
// bandwidth, and ≈60 ns zero-load latency at a 4 GHz core clock.
package dram

import (
	"fmt"

	"bingo/internal/mem"
)

// Config holds the structural and timing parameters. All latencies are in
// core cycles.
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        uint64 // row-buffer size per bank
	TCAS            uint64 // column access (row hit) latency
	TRCD            uint64 // row activate latency
	TRP             uint64 // precharge latency
	TController     uint64 // fixed controller/queueing overhead
	BusCycles       uint64 // data-bus occupancy per 64 B transfer per channel
}

// Default4GHz returns the paper's memory system expressed in 4 GHz core
// cycles: 60 ns zero-load latency and 37.5 GB/s peak bandwidth over two
// channels (64 B / (18.75 GB/s) ≈ 3.4 ns ≈ 14 cycles of bus time).
func Default4GHz() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 16,
		RowBytes:        8192,
		TCAS:            56, // 14 ns
		TRCD:            56,
		TRP:             56,
		TController:     72, // 18 ns
		BusCycles:       14,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || !mem.IsPow2(c.Channels) {
		return fmt.Errorf("dram: channels %d must be a positive power of two", c.Channels)
	}
	if c.BanksPerChannel <= 0 || !mem.IsPow2(c.BanksPerChannel) {
		return fmt.Errorf("dram: banks/channel %d must be a positive power of two", c.BanksPerChannel)
	}
	if c.RowBytes < mem.BlockSize || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d must be a power of two ≥ %d", c.RowBytes, mem.BlockSize)
	}
	return nil
}

// Stats counts DRAM traffic and row-buffer behaviour.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowEmpty     uint64 // activate into a precharged bank
	RowConflicts uint64 // activate requiring a precharge first
	BusBusy      uint64 // total channel-bus busy cycles (all channels)
}

// Delta returns the counter-wise difference s - prev; with cumulative
// samples of the DRAM Stats this yields exact per-interval counts (the
// telemetry epoch series is built this way).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Reads:        s.Reads - prev.Reads,
		Writes:       s.Writes - prev.Writes,
		RowHits:      s.RowHits - prev.RowHits,
		RowEmpty:     s.RowEmpty - prev.RowEmpty,
		RowConflicts: s.RowConflicts - prev.RowConflicts,
		BusBusy:      s.BusBusy - prev.BusBusy,
	}
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

const noOpenRow = ^uint64(0)

type bank struct {
	openRow uint64
	freeAt  uint64
}

type channel struct {
	banks     []bank
	busFreeAt uint64
}

// DRAM is the memory backstop. It implements cache.Backstop. Not safe for
// concurrent use; the simulation loop is single-goroutine.
type DRAM struct {
	cfg       Config
	chans     []channel
	chanShift uint
	chanMask  uint64
	bankMask  uint64
	rowShift  uint
	stats     Stats
	san       sanState // runtime invariant sanitizer (empty without -tags=san)
}

// New builds a DRAM model.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{
		cfg:       cfg,
		chans:     make([]channel, cfg.Channels),
		chanShift: mem.BlockShift,
		chanMask:  uint64(cfg.Channels - 1),
		bankMask:  uint64(cfg.BanksPerChannel - 1),
		rowShift:  mem.Log2(cfg.RowBytes),
	}
	for i := range d.chans {
		d.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = noOpenRow
		}
	}
	d.sanInit()
	return d, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (row-buffer and queue state persists).
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// decode maps a physical address to (channel, bank, row) indices. Channel
// bits sit just above the block offset so consecutive blocks stripe across
// channels; bank bits sit above the row so a row is contiguous in a bank.
func (d *DRAM) decode(addr mem.Addr) (ci, bi int, row uint64) {
	block := addr.BlockNumber()
	ci = int(block & d.chanMask)
	row = uint64(addr) >> d.rowShift
	bi = int(row & d.bankMask)
	return ci, bi, row >> mem.Log2(uint64(d.cfg.BanksPerChannel))
}

// Access models one 64 B transfer and returns its completion cycle. Writes
// go through the same row/bus machinery (the caller typically does not
// wait on the returned cycle for writebacks, but the bandwidth is
// consumed either way).
//
// Column accesses to an open row pipeline at the bus rate (tCCD), so a
// burst of row-buffer hits — the common case for spatial prefetches
// landing in one DRAM row — streams at full bandwidth instead of paying
// tCAS serially; only row activations occupy the bank for their full
// latency.
func (d *DRAM) Access(now uint64, addr mem.Addr, write bool) uint64 {
	ci, bi, row := d.decode(addr)
	ch := &d.chans[ci]
	bk := &ch.banks[bi]

	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}

	start := now + d.cfg.TController
	if bk.freeAt > start {
		start = bk.freeAt
	}

	prevRow := bk.openRow
	var rowLat uint64
	switch {
	case bk.openRow == row:
		d.stats.RowHits++
		rowLat = d.cfg.TCAS
	case bk.openRow == noOpenRow:
		d.stats.RowEmpty++
		rowLat = d.cfg.TRCD + d.cfg.TCAS
	default:
		d.stats.RowConflicts++
		rowLat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
	}
	bk.openRow = row

	dataReady := start + rowLat
	busStart := dataReady
	prevBusFree := ch.busFreeAt
	if prevBusFree > busStart {
		busStart = prevBusFree
	}
	done := busStart + d.cfg.BusCycles
	ch.busFreeAt = done
	// The bank accepts the next column command after tCCD (≈ one bus
	// transfer); after an activation it is busy until the row is open.
	bk.freeAt = start + (rowLat - d.cfg.TCAS) + d.cfg.BusCycles
	d.stats.BusBusy += d.cfg.BusCycles
	d.sanAfterAccess(now, ci, bi, prevRow, row, rowLat, start, busStart, done, prevBusFree)
	return done
}

// PeakBandwidthGBps returns the theoretical peak bandwidth implied by the
// configuration at the given core clock in GHz.
func (d *DRAM) PeakBandwidthGBps(coreGHz float64) float64 {
	perChannel := float64(mem.BlockSize) / (float64(d.cfg.BusCycles) / coreGHz) // bytes per ns
	return perChannel * float64(d.cfg.Channels)
}
