// Package trace defines the memory-access record format shared by the
// workload generators, the trace tools and the simulator, with binary and
// text codecs. DRAMsim consumed traces in this spirit when run standalone;
// cmd/tracegen produces them and cmd/smartrefresh-sim can replay them.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"smartrefresh/internal/sim"
)

// Record is one demand memory access.
type Record struct {
	Time  sim.Time
	Addr  uint64
	Write bool
}

// String renders the record in the text codec format.
func (r Record) String() string {
	op := "R"
	if r.Write {
		op = "W"
	}
	return fmt.Sprintf("%d %#x %s", int64(r.Time), r.Addr, op)
}

// Source is a stream of records in nondecreasing time order.
type Source interface {
	// Next returns the next record; ok is false at end of stream.
	Next() (rec Record, ok bool)
}

// SliceSource replays a fixed slice of records.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource wraps records (not copied) as a Source.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Binary codec: little-endian fixed layout (8 bytes time, 8 bytes address,
// 1 flag byte), preceded by a 8-byte magic header.

var binaryMagic = [8]byte{'S', 'R', 'T', 'R', 'C', 'E', '0', '1'}

// ErrBadMagic reports a stream that is not a binary trace.
var ErrBadMagic = errors.New("trace: bad magic; not a binary trace")

// ErrTimeOverflow reports a binary record whose unsigned time field
// exceeds math.MaxInt64. The codec stores times as uint64 on the wire
// but sim.Time is int64; decoding such a value would yield a negative
// timestamp the text codec's ParseRecord rejects, so the binary reader
// rejects it too instead of silently corrupting the stream.
var ErrTimeOverflow = errors.New("trace: time overflows int64")

// BinaryWriter encodes records to a stream.
type BinaryWriter struct {
	w       *bufio.Writer
	started bool
	n       uint64
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (bw *BinaryWriter) Write(rec Record) error {
	if !bw.started {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.started = true
	}
	var buf [17]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(rec.Time))
	binary.LittleEndian.PutUint64(buf[8:16], rec.Addr)
	if rec.Write {
		buf[16] = 1
	}
	if _, err := bw.w.Write(buf[:]); err != nil {
		return err
	}
	bw.n++
	return nil
}

// Count returns the number of records written.
func (bw *BinaryWriter) Count() uint64 { return bw.n }

// Flush flushes buffered output; call before closing the underlying file.
func (bw *BinaryWriter) Flush() error {
	if !bw.started {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.started = true
	}
	return bw.w.Flush()
}

// BinaryReader decodes records from a stream. It implements Source with
// errors surfaced through Err.
type BinaryReader struct {
	r       *bufio.Reader
	started bool
	n       uint64
	err     error
	// buf is the record scratch buffer. As a field rather than a local
	// it stays off the heap: a local passed through io.ReadFull's
	// io.Reader parameter escapes, which cost an allocation per record.
	buf [17]byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Next implements Source.
func (br *BinaryReader) Next() (Record, bool) {
	if br.err != nil {
		return Record{}, false
	}
	if !br.started {
		var magic [8]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			// A completely empty stream is a clean EOF (zero records),
			// not an error; ReadFull reports a torn magic as
			// io.ErrUnexpectedEOF, which is.
			if err != io.EOF {
				br.err = err
			}
			return Record{}, false
		}
		if magic != binaryMagic {
			br.err = ErrBadMagic
			return Record{}, false
		}
		br.started = true
	}
	if _, err := io.ReadFull(br.r, br.buf[:]); err != nil {
		if err != io.EOF {
			br.err = err
		}
		return Record{}, false
	}
	t := binary.LittleEndian.Uint64(br.buf[0:8])
	if t > math.MaxInt64 {
		br.err = fmt.Errorf("%w: record %d has time %#x", ErrTimeOverflow, br.n, t)
		return Record{}, false
	}
	br.n++
	return Record{
		Time:  sim.Time(t),
		Addr:  binary.LittleEndian.Uint64(br.buf[8:16]),
		Write: br.buf[16] != 0,
	}, true
}

// Err returns the first decode error (nil at clean EOF).
func (br *BinaryReader) Err() error { return br.err }

// Text codec: one record per line, "time addr R|W"; addr may be decimal or
// 0x-hex; lines starting with '#' are comments.

// TextWriter encodes records as text lines.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{w: bufio.NewWriter(w)} }

// Write appends one record.
func (tw *TextWriter) Write(rec Record) error {
	_, err := fmt.Fprintln(tw.w, rec.String())
	return err
}

// Flush flushes buffered output.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// TextReader decodes text traces. It implements Source.
type TextReader struct {
	sc   *bufio.Scanner
	err  error
	line int
}

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &TextReader{sc: sc}
}

// Next implements Source.
func (tr *TextReader) Next() (Record, bool) {
	if tr.err != nil {
		return Record{}, false
	}
	for tr.sc.Scan() {
		tr.line++
		text := strings.TrimSpace(tr.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := ParseRecord(text)
		if err != nil {
			tr.err = fmt.Errorf("trace: line %d: %w", tr.line, err)
			return Record{}, false
		}
		return rec, true
	}
	tr.err = tr.sc.Err()
	return Record{}, false
}

// Err returns the first parse or scan error (nil at clean EOF).
func (tr *TextReader) Err() error { return tr.err }

// ParseRecord parses one text-codec line.
func ParseRecord(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Record{}, fmt.Errorf("want 3 fields, got %d", len(fields))
	}
	t, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad time %q: %w", fields[0], err)
	}
	if t < 0 {
		return Record{}, fmt.Errorf("negative time %d", t)
	}
	addr, err := strconv.ParseUint(fields[1], 0, 64) // base 0: decimal or 0x-hex
	if err != nil {
		return Record{}, fmt.Errorf("bad address %q: %w", fields[1], err)
	}
	var write bool
	switch fields[2] {
	case "R", "r":
		write = false
	case "W", "w":
		write = true
	default:
		return Record{}, fmt.Errorf("bad op %q (want R or W)", fields[2])
	}
	return Record{Time: sim.Time(t), Addr: addr, Write: write}, nil
}
