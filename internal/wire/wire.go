// Package wire provides the primitives of the hand-rolled binary codec:
// a sticky-error Writer/Reader pair over a small set of canonical field
// encodings (bytes, varints, floats). The Writer appends to a byte
// slice and the Reader decodes from one; Append, Marshal and
// Unmarshal run a message type's single EncodeWire/DecodeWire pair, the
// Msg interface every message implements.
//
// The encoding is deliberately boring: no reflection, no type
// descriptors, no schema evolution inside a message. Fixed-width values
// are big-endian; lengths and counts are unsigned varints; byte slices
// are length-prefixed, and a message with fixed-width elements (field
// elements, curve points) carries them back to back in one byte slice.
// Every length and count read is bounds-checked before allocation, so a
// hostile peer cannot make a decoder allocate more than the bytes it
// actually sent. Versioning lives one layer up, in the transport frame
// header — a message encoding never changes shape silently; incompatible
// changes get a new frame version.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Resource bounds. Every read is also bounded by the bytes actually
// present; these caps hold on both sides, so an encoder never emits a
// field its peer's decoder would refuse.
const (
	// MaxBytes bounds any single length-prefixed byte field (256 MiB).
	MaxBytes = 1 << 28
	// MaxCount bounds any element count (16M elements).
	MaxCount = 1 << 24
)

// Typed decode errors. Every malformed input surfaces as one of these
// (wrapped with context), never as a panic.
var (
	// ErrTruncated reports input that ends mid-field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrOversize reports a length or count beyond the decoder's bounds.
	ErrOversize = errors.New("wire: length exceeds bound")
	// ErrInvalid reports a syntactically well-formed but semantically
	// impossible value (e.g. a bool byte that is neither 0 nor 1).
	ErrInvalid = errors.New("wire: invalid value")
	// ErrNilValue reports an attempt to encode a nil required field.
	ErrNilValue = errors.New("wire: nil value")
	// ErrTrailing reports leftover bytes after a complete message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Msg is the single pair of methods a type implements to join the codec;
// Marshal, Append and Unmarshal drive it.
type Msg interface {
	EncodeWire(*Writer)
	DecodeWire(*Reader)
}

// Writer appends canonical field encodings to a byte slice. Errors are
// sticky: after the first failure every subsequent call is a no-op and
// Err returns the cause, so message encoders read as straight-line field
// lists.
type Writer struct {
	buf     []byte
	err     error
	scratch [binary.MaxVarintLen64]byte
}

// NewAppendWriter returns a Writer accumulating onto buf (which may be
// nil, or a recycled buffer sliced to length 0).
func NewAppendWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) write(p []byte) {
	if w.err == nil {
		w.buf = append(w.buf, p...)
	}
}

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) { w.write([]byte{b}) }

// Bool writes a bool as a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// Int writes a signed int as a zigzag varint.
func (w *Writer) Int(v int) {
	n := binary.PutVarint(w.scratch[:], int64(v))
	w.write(w.scratch[:n])
}

// Uint writes an unsigned int as an unsigned varint.
func (w *Writer) Uint(v uint) { w.Uvarint(uint64(v)) }

// Float64 writes the IEEE-754 bits, big-endian.
func (w *Writer) Float64(v float64) {
	binary.BigEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
	w.write(w.scratch[:8])
}

// ByteSlice writes a length-prefixed byte slice (nil encodes as empty).
func (w *Writer) ByteSlice(p []byte) {
	if len(p) > MaxBytes {
		w.fail(fmt.Errorf("%w: %d bytes", ErrOversize, len(p)))
		return
	}
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	if len(s) > MaxBytes {
		w.fail(fmt.Errorf("%w: %d bytes", ErrOversize, len(s)))
		return
	}
	w.Uvarint(uint64(len(s)))
	if w.err == nil {
		w.buf = append(w.buf, s...)
	}
}

// Count writes an element count for a following sequence.
func (w *Writer) Count(n int) {
	if n < 0 || n > MaxCount {
		w.fail(fmt.Errorf("%w: count %d", ErrOversize, n))
		return
	}
	w.Uvarint(uint64(n))
}

// Nil fails the encoding with ErrNilValue: an encoder calls it when a
// required field (what) is nil.
func (w *Writer) Nil(what string) { w.fail(fmt.Errorf("%w: %s", ErrNilValue, what)) }

// Reader decodes canonical field encodings from a byte slice, checking
// every length and count against the remaining input. Errors are sticky;
// decoded values after a failure are zero.
type Reader struct {
	buf     []byte
	off     int
	err     error
	scratch [8]byte
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done checks that the Reader consumed its entire input.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, r.off, len(r.buf)))
	}
	return r.err
}

// remaining reports the unread byte count.
func (r *Reader) remaining() int { return len(r.buf) - r.off }

// take reads exactly n bytes into the scratch buffer (n <= 8).
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return r.scratch[:n]
	}
	if r.remaining() < n {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, r.remaining()))
		return r.scratch[:n]
	}
	copy(r.scratch[:n], r.buf[r.off:])
	r.off += n
	return r.scratch[:n]
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte { return r.take(1)[0] }

// Bool reads a 0/1 byte; any other value is ErrInvalid.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err != nil {
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: bool byte 0x%02x", ErrInvalid, b))
		return false
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: uvarint", ErrTruncated))
		return 0
	}
	r.off += n
	return v
}

// Int reads a zigzag varint into an int.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: varint", ErrTruncated))
		return 0
	}
	r.off += n
	return int(v)
}

// Uint reads an unsigned varint into a uint.
func (r *Reader) Uint() uint { return uint(r.Uvarint()) }

// Float64 reads big-endian IEEE-754 bits.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(r.take(8)))
}

// Count reads an element count, bounded by MaxCount and by the remaining
// input (every element costs at least one byte, so a count beyond that is
// provably truncated or hostile).
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > MaxCount {
		r.fail(fmt.Errorf("%w: count %d > %d", ErrOversize, v, MaxCount))
		return 0
	}
	if rem := r.remaining(); v > uint64(rem) {
		r.fail(fmt.Errorf("%w: count %d with %d bytes left", ErrTruncated, v, rem))
		return 0
	}
	return int(v)
}

// ByteSlice reads a length-prefixed byte slice. The result is a fresh
// copy: Unmarshal callers may reuse the input buffer.
func (r *Reader) ByteSlice() []byte {
	v := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if v > MaxBytes {
		r.fail(fmt.Errorf("%w: %d bytes > %d", ErrOversize, v, MaxBytes))
		return nil
	}
	n := int(v)
	if r.remaining() < n {
		r.fail(fmt.Errorf("%w: %d-byte field with %d bytes left", ErrTruncated, n, r.remaining()))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// readChunk bounds how far ReadChunked's buffer may run ahead of the bytes
// that have actually arrived.
const readChunk = 1 << 20

// ReadChunked reads exactly n bytes from r into buf[:0] and returns the
// filled slice. A full buffer grows only once its bytes have arrived, by
// at least one 1 MiB chunk and at most doubling, so a hostile length
// prefix costs one chunk until its payload actually arrives; a recycled
// buf with enough capacity is filled in place. A stream that ends early
// fails with io.ErrUnexpectedEOF.
func ReadChunked(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(len(buf)+readChunk, 2*cap(buf))))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.ByteSlice()) }

// Marshal encodes m into a fresh buffer.
func Marshal(m Msg) ([]byte, error) {
	w := NewAppendWriter(nil)
	m.EncodeWire(w)
	return w.Bytes(), w.Err()
}

// Append encodes m onto buf, returning the extended buffer. Callers that
// recycle buf get allocation-free steady-state encoding.
func Append(buf []byte, m Msg) ([]byte, error) {
	w := NewAppendWriter(buf)
	m.EncodeWire(w)
	return w.Bytes(), w.Err()
}

// Unmarshal decodes m from data, requiring the message to consume the
// input exactly.
func Unmarshal(data []byte, m Msg) error {
	r := NewReader(data)
	m.DecodeWire(r)
	return r.Done()
}

// SliceCap bounds the initial capacity of a count-prefixed slice
// allocation. Decode loops append up to the claimed count, but a hostile
// count must not force a large up-front allocation before the elements
// actually arrive; loops grow past this hint via append.
func SliceCap(n int) int { return min(n, 4096) }
