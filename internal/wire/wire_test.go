package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// testMsg exercises every primitive through the Msg adapters.
type testMsg struct {
	B   byte
	OK  bool
	U   uint64
	I   int
	UN  uint
	F   float64
	P   []byte
	S   string
	Seq [][]byte
}

func (m *testMsg) EncodeWire(w *Writer) {
	w.Byte(m.B)
	w.Bool(m.OK)
	w.Uvarint(m.U)
	w.Int(m.I)
	w.Uint(m.UN)
	w.Float64(m.F)
	w.ByteSlice(m.P)
	w.String(m.S)
	w.Count(len(m.Seq))
	for _, x := range m.Seq {
		w.ByteSlice(x)
	}
}

func (m *testMsg) DecodeWire(r *Reader) {
	m.B = r.Byte()
	m.OK = r.Bool()
	m.U = r.Uvarint()
	m.I = r.Int()
	m.UN = r.Uint()
	m.F = r.Float64()
	m.P = r.ByteSlice()
	m.S = r.String()
	n := r.Count()
	if r.Err() != nil {
		return
	}
	m.Seq = m.Seq[:0]
	for i := 0; i < n; i++ {
		m.Seq = append(m.Seq, r.ByteSlice())
	}
}

func sampleMsg() *testMsg {
	return &testMsg{
		B:   0xAB,
		OK:  true,
		U:   1 << 60,
		I:   -123456789,
		UN:  42,
		F:   -math.Pi,
		P:   []byte{1, 2, 3},
		S:   "hello, wire",
		Seq: [][]byte{{}, {7}, bytes.Repeat([]byte{0xFF}, 32)},
	}
}

func msgEqual(a, b *testMsg) bool {
	if a.B != b.B || a.OK != b.OK || a.U != b.U || a.I != b.I || a.UN != b.UN ||
		a.F != b.F || !bytes.Equal(a.P, b.P) || a.S != b.S || len(a.Seq) != len(b.Seq) {
		return false
	}
	for i := range a.Seq {
		if !bytes.Equal(a.Seq[i], b.Seq[i]) {
			return false
		}
	}
	return true
}

func TestRoundTripMarshalAndAppend(t *testing.T) {
	in := sampleMsg()
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	// Appending after a prefix must produce the same bytes after it.
	prefix := []byte{0xEE, 0xEE}
	appended, err := Append(append([]byte{}, prefix...), in)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], data) {
		t.Fatalf("Append and Marshal encodings differ")
	}

	var out testMsg
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !msgEqual(in, &out) {
		t.Fatalf("round trip mismatch: %+v != %+v", in, &out)
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	data, err := Marshal(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	var out testMsg
	err = Unmarshal(append(data, 0x00), &out)
	if !errors.Is(err, ErrTrailing) {
		t.Fatalf("got %v, want ErrTrailing", err)
	}
}

func TestTruncationEveryPrefix(t *testing.T) {
	data, err := Marshal(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		var out testMsg
		err := Unmarshal(data[:n], &out)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTrailing) && !errors.Is(err, ErrInvalid) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", r.Err())
	}
}

func TestCountBounds(t *testing.T) {
	// A count larger than the remaining input is provably truncated.
	w := NewAppendWriter(nil)
	w.Uvarint(1000)
	r := NewReader(w.Bytes())
	r.Count()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("count past the input: got %v, want ErrTruncated", r.Err())
	}

	// A count past MaxCount is oversize whatever input follows.
	w2 := NewAppendWriter(nil)
	w2.Uvarint(MaxCount + 1)
	r2 := NewReader(w2.Bytes())
	r2.Count()
	if !errors.Is(r2.Err(), ErrOversize) {
		t.Fatalf("count past MaxCount: got %v, want ErrOversize", r2.Err())
	}
}

func TestByteSliceOversize(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uvarint(MaxBytes + 1)
	r := NewReader(w.Bytes())
	r.ByteSlice()
	if !errors.Is(r.Err(), ErrOversize) {
		t.Fatalf("got %v, want ErrOversize", r.Err())
	}
}

func TestByteSliceIsFreshCopy(t *testing.T) {
	w := NewAppendWriter(nil)
	w.ByteSlice([]byte{1, 2, 3})
	data := w.Bytes()
	r := NewReader(data)
	out := r.ByteSlice()
	data[len(data)-1] = 99
	if out[2] != 3 {
		t.Fatalf("decoded slice aliases the input buffer")
	}
}

// TestWriterNil: an encoder's nil required field fails the encoding with
// ErrNilValue.
func TestWriterNil(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Nil("field")
	if !errors.Is(w.Err(), ErrNilValue) {
		t.Fatalf("got %v, want ErrNilValue", w.Err())
	}
}

func TestStickyWriterError(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Nil("field")
	before := len(w.Bytes())
	w.Int(7)
	w.String("more")
	if len(w.Bytes()) != before {
		t.Fatalf("writes continued after sticky error")
	}
}

func TestAppendRecyclesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	out, err := Append(buf, sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatalf("Append reallocated despite sufficient capacity")
	}
}
