package ompe

import (
	"io"

	"repro/internal/field"
	"repro/internal/ot"
	"repro/internal/wire"
)

// Binary wire encodings for the OMPE message types (see internal/wire
// for the primitive formats and internal/transport for the frame layer).

// EncodeWire implements the wire codec.
func (p *Pair) EncodeWire(w *wire.Writer) {
	w.BigInt(p.V)
	w.Count(len(p.Z))
	for _, z := range p.Z {
		w.BigInt(z)
	}
}

// DecodeWire implements the wire codec.
func (p *Pair) DecodeWire(r *wire.Reader) {
	p.V = r.BigInt()
	n := r.Count()
	if r.Err() != nil {
		return
	}
	p.Z = make(field.Vec, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		p.Z = append(p.Z, r.BigInt())
		if r.Err() != nil {
			return
		}
	}
}

// EncodeWire implements the wire codec.
func (e *EvalRequest) EncodeWire(w *wire.Writer) {
	w.Count(len(e.Pairs))
	for i := range e.Pairs {
		e.Pairs[i].EncodeWire(w)
	}
	w.ByteSlice(e.Packed)
}

// DecodeWire implements the wire codec.
func (e *EvalRequest) DecodeWire(r *wire.Reader) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	if n > 0 {
		e.Pairs = make([]Pair, n)
		for i := range e.Pairs {
			e.Pairs[i].DecodeWire(r)
			if r.Err() != nil {
				return
			}
		}
	} else {
		e.Pairs = nil
	}
	e.Packed = r.ByteSlice()
	if len(e.Packed) == 0 {
		e.Packed = nil
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e *EvalRequest) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (e *EvalRequest) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, e) }

// WriteTo implements io.WriterTo.
func (e *EvalRequest) WriteTo(w io.Writer) (int64, error) { return wire.WriteTo(w, e) }

// ReadFrom implements io.ReaderFrom.
func (e *EvalRequest) ReadFrom(r io.Reader) (int64, error) { return wire.ReadFrom(r, e) }

// encodeEval writes a required inner EvalRequest.
func encodeEval(w *wire.Writer, e *EvalRequest) {
	if e == nil {
		w.BigInt(nil) // typed ErrNilValue via the sticky writer
		return
	}
	e.EncodeWire(w)
}

func decodeEval(r *wire.Reader) *EvalRequest {
	e := new(EvalRequest)
	e.DecodeWire(r)
	if r.Err() != nil {
		return nil
	}
	return e
}

// EncodeWire implements the wire codec.
func (m *FastBatchRequest) EncodeWire(w *wire.Writer) {
	w.Count(len(m.Evals))
	for _, e := range m.Evals {
		encodeEval(w, e)
	}
	if m.OT == nil {
		w.BigInt(nil)
		return
	}
	m.OT.EncodeWire(w)
}

// DecodeWire implements the wire codec.
func (m *FastBatchRequest) DecodeWire(r *wire.Reader) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	m.Evals = make([]*EvalRequest, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		e := decodeEval(r)
		if r.Err() != nil {
			return
		}
		m.Evals = append(m.Evals, e)
	}
	ot := new(ot.ExtKofNBatchRequest)
	ot.DecodeWire(r)
	if r.Err() != nil {
		return
	}
	m.OT = ot
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *FastBatchRequest) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *FastBatchRequest) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

// WriteTo implements io.WriterTo.
func (m *FastBatchRequest) WriteTo(w io.Writer) (int64, error) { return wire.WriteTo(w, m) }

// ReadFrom implements io.ReaderFrom.
func (m *FastBatchRequest) ReadFrom(r io.Reader) (int64, error) { return wire.ReadFrom(r, m) }

// EncodeWire implements the wire codec.
func (m *FastBatchResponse) EncodeWire(w *wire.Writer) {
	if m.OT == nil {
		w.BigInt(nil)
		return
	}
	m.OT.EncodeWire(w)
}

// DecodeWire implements the wire codec.
func (m *FastBatchResponse) DecodeWire(r *wire.Reader) {
	ot := new(ot.ExtKofNBatchResponse)
	ot.DecodeWire(r)
	if r.Err() != nil {
		return
	}
	m.OT = ot
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *FastBatchResponse) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *FastBatchResponse) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

// WriteTo implements io.WriterTo.
func (m *FastBatchResponse) WriteTo(w io.Writer) (int64, error) { return wire.WriteTo(w, m) }

// ReadFrom implements io.ReaderFrom.
func (m *FastBatchResponse) ReadFrom(r io.Reader) (int64, error) { return wire.ReadFrom(r, m) }
