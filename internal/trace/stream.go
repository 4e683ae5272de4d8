// Streaming ingest: StreamSource replays traces of unbounded size with
// bounded memory. It layers chunked decoding over the existing binary
// and text codecs, auto-detects the input format (gzip-compressed or
// plain, binary or text) by sniffing magic bytes, and optionally
// tolerates a torn trailing record the way checkpoint loading tolerates
// a torn tail — the complete prefix is still worth replaying.
package trace

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// Stream option defaults.
const (
	// DefaultStreamBuffer is the read-ahead buffer used when
	// StreamOptions.BufferBytes is zero: 1 MiB, large enough to amortise
	// syscalls on fast storage, small next to any day-long trace.
	DefaultStreamBuffer = 1 << 20
	// DefaultChunkRecords is the number of records decoded per refill
	// when StreamOptions.ChunkRecords is zero.
	DefaultChunkRecords = 512
	// minStreamBuffer clamps pathological option values. It matches the
	// codec readers' own bufio default, so the codec layer reuses the
	// sniffed buffer instead of stacking a second one — the configured
	// BufferBytes is then the exact byte read-ahead bound.
	minStreamBuffer = 4096
)

// StreamOptions configure a StreamSource.
type StreamOptions struct {
	// BufferBytes bounds the byte read-ahead over the underlying reader
	// (0 = DefaultStreamBuffer). Together with ChunkRecords it is the
	// trace-side memory bound: a StreamSource never holds more than
	// BufferBytes of raw input plus ChunkRecords decoded records,
	// regardless of trace length. Gzip inputs add the decompressor's
	// fixed ~64 KiB window on top.
	BufferBytes int
	// ChunkRecords is the decoded read-ahead, in records, refilled in
	// one batch so the per-record path stays allocation-free
	// (0 = DefaultChunkRecords).
	ChunkRecords int
	// TolerateTorn treats a trace cut mid-record (io.ErrUnexpectedEOF
	// from the codec or the gzip layer) as a clean end of stream instead
	// of an error, mirroring how checkpoint loading keeps the complete
	// prefix of a torn file. Torn reports whether that happened.
	TolerateTorn bool
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.BufferBytes <= 0 {
		o.BufferBytes = DefaultStreamBuffer
	}
	if o.BufferBytes < minStreamBuffer {
		o.BufferBytes = minStreamBuffer
	}
	if o.ChunkRecords <= 0 {
		o.ChunkRecords = DefaultChunkRecords
	}
	return o
}

// StreamFormat identifies the detected trace encoding.
type StreamFormat uint8

// The detected trace encodings.
const (
	FormatText StreamFormat = iota
	FormatBinary
)

// String renders the format name.
func (f StreamFormat) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

var gzipMagic = [2]byte{0x1f, 0x8b}

// StreamSource is a bounded-memory Source over a trace stream of any
// supported encoding. It latches the first decode error in Err.
type StreamSource struct {
	inner     Source
	innerErr  func() error
	opts      StreamOptions
	format    StreamFormat
	gzipped   bool
	chunk     []Record
	pos       int
	delivered uint64
	eof       bool
	torn      bool
	tornErr   error
}

// NewStreamSource wraps r as a streaming trace source. It sniffs the
// head of the stream — first for the gzip magic (transparently
// decompressing), then for the binary trace magic — so callers can feed
// it a plain or gzip-compressed, binary or text trace without declaring
// which. Sniffing uses buffered Peek, never a bare short Read, so it is
// correct on pipes and sockets that deliver one byte at a time.
func NewStreamSource(r io.Reader, opts StreamOptions) (*StreamSource, error) {
	opts = opts.withDefaults()
	s := &StreamSource{opts: opts, chunk: make([]Record, 0, opts.ChunkRecords)}

	br := bufio.NewReaderSize(r, opts.BufferBytes)
	head, err := br.Peek(len(gzipMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniff stream: %w", err)
	}
	var payload *bufio.Reader
	if len(head) == len(gzipMagic) && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: open gzip stream: %w", err)
		}
		s.gzipped = true
		// The decompressed side gets its own small buffer so the format
		// sniff below can Peek; the byte read-ahead bound still belongs
		// to the outer (compressed) buffer.
		payload = bufio.NewReaderSize(gz, 4096)
	} else {
		payload = br
	}

	// Format sniff. A short head (fewer than 8 bytes before EOF) can
	// still be a valid text trace ("1 2 R\n" is six bytes), so anything
	// that is not the full binary magic falls through to the text codec.
	magic, err := payload.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniff format: %w", err)
	}
	if len(magic) == len(binaryMagic) && [8]byte(magic) == binaryMagic {
		s.format = FormatBinary
		inner := NewBinaryReader(payload)
		s.inner, s.innerErr = inner, inner.Err
	} else {
		s.format = FormatText
		inner := NewTextReader(payload)
		s.inner, s.innerErr = inner, inner.Err
	}
	return s, nil
}

// Next implements Source.
func (s *StreamSource) Next() (Record, bool) {
	if s.pos >= len(s.chunk) {
		if s.eof {
			return Record{}, false
		}
		s.refill()
		if len(s.chunk) == 0 {
			return Record{}, false
		}
	}
	rec := s.chunk[s.pos]
	s.pos++
	s.delivered++
	return rec, true
}

// refill decodes the next chunk of records from the codec reader.
func (s *StreamSource) refill() {
	s.chunk = s.chunk[:0]
	s.pos = 0
	for len(s.chunk) < s.opts.ChunkRecords {
		rec, ok := s.inner.Next()
		if !ok {
			s.eof = true
			if err := s.innerErr(); err != nil && s.opts.TolerateTorn && errors.Is(err, io.ErrUnexpectedEOF) {
				s.torn, s.tornErr = true, err
			}
			return
		}
		s.chunk = append(s.chunk, rec)
	}
}

// Err returns the first decode error (nil at clean EOF, and nil for a
// torn tail when TolerateTorn is set — see Torn).
func (s *StreamSource) Err() error {
	if err := s.innerErr(); err != nil && !(s.torn && errors.Is(err, io.ErrUnexpectedEOF)) {
		return err
	}
	return nil
}

// Torn reports whether a tolerated torn tail ended the stream; TornErr
// returns the suppressed error for diagnostics.
func (s *StreamSource) Torn() bool { return s.torn }

// TornErr returns the codec error a tolerated torn tail suppressed.
func (s *StreamSource) TornErr() error { return s.tornErr }

// Format returns the detected trace encoding.
func (s *StreamSource) Format() StreamFormat { return s.format }

// Gzipped reports whether the stream was gzip-compressed.
func (s *StreamSource) Gzipped() bool { return s.gzipped }

// Records returns the number of records delivered so far.
func (s *StreamSource) Records() uint64 { return s.delivered }
