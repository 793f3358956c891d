package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// Traces compress extremely well (PC and address deltas repeat), so the
// tools support transparent gzip: writers opt in, readers auto-detect the
// gzip magic and decompress on the fly.

// gzipMagic are the first two bytes of any gzip stream.
//
//conc:immutable written only by its initializer; a format constant that arrays keep out of const
var gzipMagic = [2]byte{0x1f, 0x8b}

// NewAutoReader opens a trace stream that may or may not be
// gzip-compressed, sniffing the magic bytes. The returned closer, when
// non-nil, must be closed after reading (it owns the decompressor).
func NewAutoReader(r io.Reader) (*Reader, io.Closer, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(2)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: sniffing stream: %w", err)
	}
	if head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		tr, err := NewReader(gz)
		if err != nil {
			// Cleanup on a failure path: the header error wins.
			_ = gz.Close()
			return nil, nil, err
		}
		return tr, gz, nil
	}
	tr, err := NewReader(br)
	return tr, nil, err
}

// GzipWriter wraps a Writer so records are gzip-compressed on the way out.
type GzipWriter struct {
	*Writer
	gz *gzip.Writer
}

// NewGzipWriter writes a gzip-compressed trace of exactly count records.
func NewGzipWriter(w io.Writer, count uint64) (*GzipWriter, error) {
	gz := gzip.NewWriter(w)
	tw, err := NewWriter(gz, count)
	if err != nil {
		// Cleanup on a failure path: the header-write error wins.
		_ = gz.Close()
		return nil, err
	}
	return &GzipWriter{Writer: tw, gz: gz}, nil
}

// Close flushes the trace then finalises the gzip stream.
func (w *GzipWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		// The trace-finalise error wins; still release the compressor.
		_ = w.gz.Close()
		return err
	}
	return w.gz.Close()
}
