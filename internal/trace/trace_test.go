package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smartrefresh/internal/sim"
)

func sampleRecords() []Record {
	return []Record{
		{Time: 0, Addr: 0x1000, Write: false},
		{Time: 1500, Addr: 0x2040, Write: true},
		{Time: 3000, Addr: 0xdeadbeef, Write: false},
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource(sampleRecords())
	var got []Record
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted source returned ok")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != sampleRecords()[0] {
		t.Error("reset did not rewind")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r := NewBinaryReader(&buf)
	for i, want := range sampleRecords() {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing: %v", i, r.Err())
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("extra record")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF reported error %v", r.Err())
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBinaryReader(&buf)
	if _, ok := r.Next(); ok {
		t.Error("empty trace yielded a record")
	}
	if r.Err() != nil {
		t.Errorf("empty trace error: %v", r.Err())
	}
}

// TestBinaryZeroByteStream is the regression for the Err contract: a
// stream with no bytes at all (not even the magic) is a clean EOF, not
// an io.EOF error.
func TestBinaryZeroByteStream(t *testing.T) {
	r := NewBinaryReader(strings.NewReader(""))
	if _, ok := r.Next(); ok {
		t.Fatal("zero-byte stream yielded a record")
	}
	if r.Err() != nil {
		t.Errorf("zero-byte stream: Err() = %v, want nil (clean EOF)", r.Err())
	}
	// Stays clean on repeated polls.
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Errorf("second poll: Err() = %v", r.Err())
	}
}

// TestBinaryTruncatedMagic: 1..7 bytes of magic is a torn header, which
// must surface as io.ErrUnexpectedEOF — distinguishable from both clean
// EOF and a wrong-format stream.
func TestBinaryTruncatedMagic(t *testing.T) {
	for n := 1; n < 8; n++ {
		r := NewBinaryReader(bytes.NewReader([]byte("SRTRCE01")[:n]))
		if _, ok := r.Next(); ok {
			t.Fatalf("%d-byte magic yielded a record", n)
		}
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte magic: Err() = %v, want io.ErrUnexpectedEOF", n, r.Err())
		}
	}
}

// TestBinaryTornRecord: a stream cut mid-record reports the torn tail.
func TestBinaryTornRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-5] // cut the last record short
	r := NewBinaryReader(bytes.NewReader(torn))
	for i := 0; i < len(recs)-1; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("whole record %d missing: %v", i, r.Err())
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("torn record yielded")
	}
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("torn record: Err() = %v, want io.ErrUnexpectedEOF", r.Err())
	}
}

// TestBinaryTimeOverflow is the regression for the uint64→int64 hole:
// a wire time above math.MaxInt64 used to decode into a negative
// sim.Time the text codec would have rejected. It must surface as
// ErrTimeOverflow naming the record, and MaxInt64 itself must still
// decode.
func TestBinaryTimeOverflow(t *testing.T) {
	craft := func(times ...uint64) []byte {
		var buf bytes.Buffer
		buf.Write([]byte("SRTRCE01"))
		for _, tm := range times {
			var rec [17]byte
			binary.LittleEndian.PutUint64(rec[0:8], tm)
			binary.LittleEndian.PutUint64(rec[8:16], 0x1000)
			buf.Write(rec[:])
		}
		return buf.Bytes()
	}

	r := NewBinaryReader(bytes.NewReader(craft(100, math.MaxInt64)))
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("in-range record %d rejected: %v", i, r.Err())
		}
	}
	if r.Err() != nil {
		t.Fatalf("MaxInt64 time rejected: %v", r.Err())
	}

	r = NewBinaryReader(bytes.NewReader(craft(100, uint64(math.MaxInt64)+1, 200)))
	if _, ok := r.Next(); !ok {
		t.Fatalf("first record rejected: %v", r.Err())
	}
	if rec, ok := r.Next(); ok {
		t.Fatalf("overflowing time decoded as %+v", rec)
	}
	if !errors.Is(r.Err(), ErrTimeOverflow) {
		t.Fatalf("Err() = %v, want ErrTimeOverflow", r.Err())
	}
	if !strings.Contains(r.Err().Error(), "record 1") {
		t.Errorf("error %q does not name record 1", r.Err())
	}
	// The error is latched: the stream stays ended.
	if _, ok := r.Next(); ok {
		t.Error("reader yielded a record after the overflow error")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("not a trace file"))
	if _, ok := r.Next(); ok {
		t.Fatal("bad magic accepted")
	}
	if r.Err() != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", r.Err())
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewTextReader(&buf)
	for i, want := range sampleRecords() {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing: %v", i, r.Err())
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Errorf("end state wrong: %v", r.Err())
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n  \n100 0x40 R\n# mid\n200 64 W\n"
	r := NewTextReader(strings.NewReader(in))
	a, ok := r.Next()
	if !ok || a.Addr != 0x40 || a.Write {
		t.Fatalf("first = %+v ok=%v", a, ok)
	}
	b, ok := r.Next()
	if !ok || b.Addr != 64 || !b.Write {
		t.Fatalf("second = %+v ok=%v", b, ok)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"",
		"1 2",
		"1 2 3 4",
		"x 0x40 R",
		"-5 0x40 R",
		"1 zz R",
		"1 0x40 Q",
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) accepted", line)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 100, Addr: 0x40, Write: true}
	if r.String() != "100 0x40 W" {
		t.Errorf("String = %q", r.String())
	}
	r.Write = false
	if r.String() != "100 0x40 R" {
		t.Errorf("String = %q", r.String())
	}
}

// Property: binary codec round-trips arbitrary records.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(times []int64, addrs []uint64, writes []bool) bool {
		n := len(times)
		if len(addrs) < n {
			n = len(addrs)
		}
		var recs []Record
		for i := 0; i < n; i++ {
			tm := times[i]
			if tm < 0 {
				tm = -tm
			}
			recs = append(recs, Record{
				Time:  sim.Time(tm),
				Addr:  addrs[i],
				Write: i < len(writes) && writes[i],
			})
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd := NewBinaryReader(&buf)
		for _, want := range recs {
			got, ok := rd.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := rd.Next()
		return !ok && rd.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: text codec round-trips arbitrary records.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(tm uint32, addr uint64, write bool) bool {
		rec := Record{Time: sim.Time(tm), Addr: addr, Write: write}
		got, err := ParseRecord(rec.String())
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
