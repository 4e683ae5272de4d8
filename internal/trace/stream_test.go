package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"smartrefresh/internal/sim"
)

// genRecords builds a deterministic n-record trace.
func genRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Time:  sim.Time(i) * 100 * sim.Nanosecond,
			Addr:  uint64(i%977) * 16384,
			Write: i%3 == 0,
		}
	}
	return recs
}

// encodeBinary renders records through the binary codec.
func encodeBinary(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gzipBytes compresses data.
func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain collects every record of a source.
func drain(t *testing.T, src Source) []Record {
	t.Helper()
	var out []Record
	for {
		rec, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestStreamSourceMatchesSliceSource: the streaming source must yield
// exactly the records an in-memory SliceSource yields, for every input
// encoding, on a trace much larger than the read-ahead buffer.
func TestStreamSourceMatchesSliceSource(t *testing.T) {
	recs := genRecords(20000) // 20000*17 B ≈ 340 KB >> 4 KB buffer
	raw := encodeBinary(t, recs)
	var text bytes.Buffer
	tw := NewTextWriter(&text)
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		data    []byte
		format  StreamFormat
		gzipped bool
	}{
		{"binary", raw, FormatBinary, false},
		{"binary-gzip", gzipBytes(t, raw), FormatBinary, true},
		{"text", text.Bytes(), FormatText, false},
		{"text-gzip", gzipBytes(t, text.Bytes()), FormatText, true},
	}
	want := drain(t, NewSliceSource(recs))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStreamSource(bytes.NewReader(tc.data), StreamOptions{BufferBytes: 4096, ChunkRecords: 64})
			if err != nil {
				t.Fatal(err)
			}
			if s.Format() != tc.format || s.Gzipped() != tc.gzipped {
				t.Fatalf("detected %v gzip=%v, want %v gzip=%v", s.Format(), s.Gzipped(), tc.format, tc.gzipped)
			}
			got := drain(t, s)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			if s.Records() != uint64(len(want)) {
				t.Errorf("Records() = %d, want %d", s.Records(), len(want))
			}
		})
	}
}

// countingReader tracks how many bytes have been pulled from the
// underlying stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestStreamSourceBoundedReadAhead pins the memory bound: on an
// uncompressed binary trace the source never reads more than
// BufferBytes beyond what it has delivered, however large the trace.
func TestStreamSourceBoundedReadAhead(t *testing.T) {
	const bufSize = 4096
	recs := genRecords(50000) // ~850 KB, 200x the buffer
	raw := encodeBinary(t, recs)
	cr := &countingReader{r: bytes.NewReader(raw)}
	s, err := NewStreamSource(cr, StreamOptions{BufferBytes: bufSize, ChunkRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	const recordBytes = 17
	for i := 0; ; i++ {
		_, ok := s.Next()
		if !ok {
			break
		}
		consumed := int64(len(binaryMagic)) + int64(i+1)*recordBytes
		ahead := cr.n - consumed
		if slack := int64(bufSize + 32*recordBytes); ahead > slack {
			t.Fatalf("after record %d: %d bytes read ahead, bound %d", i, ahead, slack)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSourceGzipBoundedAllocs: draining a gzip'd trace several MB
// decompressed must not allocate proportional to the trace — the chunk
// buffer is reused and the decompressor's window is fixed-size.
func TestStreamSourceGzipBoundedAllocs(t *testing.T) {
	recs := genRecords(300000) // ~5.1 MB decompressed
	data := gzipBytes(t, encodeBinary(t, recs))
	s, err := NewStreamSource(bytes.NewReader(data), StreamOptions{BufferBytes: 32 * 1024, ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("drained %d records, want %d", n, len(recs))
	}
	decompressed := uint64(len(recs) * 17)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > decompressed/4 {
		t.Errorf("drain allocated %d bytes for a %d-byte trace; streaming should be bounded", delta, decompressed)
	}
}

// TestStreamSourceTornTail: a trace cut mid-record errors by default
// and ends cleanly (complete prefix preserved) under TolerateTorn.
func TestStreamSourceTornTail(t *testing.T) {
	recs := genRecords(100)
	raw := encodeBinary(t, recs)
	torn := raw[:len(raw)-9] // cut the last record in half

	s, err := NewStreamSource(bytes.NewReader(torn), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, s); len(got) != len(recs)-1 {
		t.Fatalf("strict: got %d records, want %d", len(got), len(recs)-1)
	}
	if !errors.Is(s.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("strict: Err() = %v, want io.ErrUnexpectedEOF", s.Err())
	}

	s, err = NewStreamSource(bytes.NewReader(torn), StreamOptions{TolerateTorn: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, s); len(got) != len(recs)-1 {
		t.Fatalf("tolerant: got %d records, want %d", len(got), len(recs)-1)
	}
	if err := s.Err(); err != nil {
		t.Errorf("tolerant: Err() = %v, want nil", err)
	}
	if !s.Torn() || !errors.Is(s.TornErr(), io.ErrUnexpectedEOF) {
		t.Errorf("tolerant: Torn()=%v TornErr()=%v", s.Torn(), s.TornErr())
	}
}

// TestStreamSourceTornGzip: a gzip stream cut short is a torn tail too.
func TestStreamSourceTornGzip(t *testing.T) {
	recs := genRecords(2000)
	data := gzipBytes(t, encodeBinary(t, recs))
	torn := data[:len(data)-64]

	s, err := NewStreamSource(bytes.NewReader(torn), StreamOptions{TolerateTorn: true})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	if len(got) == 0 || len(got) >= len(recs) {
		t.Fatalf("tolerant torn gzip yielded %d of %d records", len(got), len(recs))
	}
	if err := s.Err(); err != nil {
		t.Errorf("Err() = %v, want nil (tolerated)", err)
	}
	if !s.Torn() {
		t.Error("Torn() = false")
	}
}

// TestStreamSourceOneByteReader is the short-read regression for the
// magic sniff: a reader that delivers one byte per Read (a slow pipe or
// socket) must still be classified correctly. The old cmd-level sniff
// used a single bare Read and misread binary traces as text here.
func TestStreamSourceOneByteReader(t *testing.T) {
	recs := genRecords(50)
	cases := map[string][]byte{
		"binary":      encodeBinary(t, recs),
		"binary-gzip": gzipBytes(t, encodeBinary(t, recs)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewStreamSource(iotest.OneByteReader(bytes.NewReader(data)), StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Format() != FormatBinary {
				t.Fatalf("one-byte reader classified as %v, want binary", s.Format())
			}
			got := drain(t, s)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
		})
	}
}

// TestStreamSourceShortTextTrace: a valid text trace shorter than the
// 8-byte binary magic must not be misclassified or rejected.
func TestStreamSourceShortTextTrace(t *testing.T) {
	s, err := NewStreamSource(strings.NewReader("1 2 R\n"), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Format() != FormatText {
		t.Fatalf("format = %v, want text", s.Format())
	}
	got := drain(t, s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (Record{Time: 1, Addr: 2}) {
		t.Fatalf("got %+v", got)
	}
}

// TestStreamSourceEmpty: zero bytes is a clean empty trace.
func TestStreamSourceEmpty(t *testing.T) {
	s, err := NewStreamSource(strings.NewReader(""), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("empty stream yielded a record")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSourceBadGzip: a gzip header followed by garbage surfaces a
// construction error, not a panic or silent empty trace.
func TestStreamSourceBadGzip(t *testing.T) {
	data := append([]byte{0x1f, 0x8b}, bytes.Repeat([]byte{0xff}, 32)...)
	if _, err := NewStreamSource(bytes.NewReader(data), StreamOptions{}); err == nil {
		t.Error("corrupt gzip header accepted")
	}
}
