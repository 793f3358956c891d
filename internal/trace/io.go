package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bingo/internal/mem"
)

// The binary trace format is a little-endian stream:
//
//	magic   [8]byte  "BINGOTRC"
//	version uint32   (currently 1)
//	count   uint64   number of records
//	records count × { pc uint64, addr uint64, flags uint8, nonmem uint32 }
//
// flags bit 0 is the access kind (0 load, 1 store) and bit 1 marks an
// address-dependent access.
//
// The format is intentionally simple: fixed-width fields, no compression,
// so records can be seeked and sliced by external tools.

//conc:immutable written only by its initializer; a format constant that arrays keep out of const
var traceMagic = [8]byte{'B', 'I', 'N', 'G', 'O', 'T', 'R', 'C'}

const formatVersion = 1

// recordWireSize is the encoded size of one record in bytes.
const recordWireSize = 8 + 8 + 1 + 4

// ErrBadMagic reports a stream that is not a Bingo trace.
//
//conc:immutable sentinel error, assigned once at package init
var ErrBadMagic = errors.New("trace: bad magic (not a Bingo trace file)")

// Writer serialises records to an io.Writer in the binary trace format.
// Close must be called to flush buffered data and back-patch nothing —
// the count is written up front, so the caller supplies it to NewWriter.
type Writer struct {
	w     *bufio.Writer
	count uint64
	wrote uint64
}

// NewWriter writes the header for a trace of exactly count records.
func NewWriter(w io.Writer, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], formatVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, count: count}, nil
}

// Write appends one record. It fails if more than the declared count of
// records are written.
func (w *Writer) Write(r Record) error {
	if w.wrote >= w.count {
		return fmt.Errorf("trace: more than the declared %d records written", w.count)
	}
	var buf [recordWireSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.PC))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(r.Addr))
	flags := byte(r.Kind) & 1
	if r.Dep {
		flags |= 2
	}
	buf[16] = flags
	binary.LittleEndian.PutUint32(buf[17:21], r.NonMem)
	if _, err := w.w.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.wrote++
	return nil
}

// Close flushes the writer and verifies the declared record count was met.
func (w *Writer) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: declared %d records but wrote %d", w.count, w.wrote)
	}
	return w.w.Flush()
}

// Reader decodes a binary trace stream and implements Source.
type Reader struct {
	r         *bufio.Reader
	remaining uint64
	err       error
	// buf holds the record being decoded; as a local it would escape
	// through io.ReadFull and cost an allocation per record.
	buf [recordWireSize]byte
}

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", v)
	}
	return &Reader{r: br, remaining: binary.LittleEndian.Uint64(hdr[4:12])}, nil
}

// Remaining returns how many records are left to read.
func (r *Reader) Remaining() uint64 { return r.remaining }

// Err returns the first I/O error encountered by Next, if any.
func (r *Reader) Err() error { return r.err }

// Next implements Source. A short or corrupt stream terminates the source
// and records the error for Err.
func (r *Reader) Next() (Record, bool) {
	if r.remaining == 0 || r.err != nil {
		return Record{}, false
	}
	buf := &r.buf
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.err = fmt.Errorf("trace: truncated stream: %w", err)
		r.remaining = 0
		return Record{}, false
	}
	r.remaining--
	return Record{
		PC:     mem.PC(binary.LittleEndian.Uint64(buf[0:8])),
		Addr:   mem.Addr(binary.LittleEndian.Uint64(buf[8:16])),
		Kind:   Kind(buf[16] & 1),
		Dep:    buf[16]&2 != 0,
		NonMem: binary.LittleEndian.Uint32(buf[17:21]),
	}, true
}
