package ompe

import (
	"repro/internal/ot"
	"repro/internal/wire"
)

// Binary wire encodings for the OMPE message types (see internal/wire
// for the primitive formats and internal/transport for the frame layer).

// EncodeWire implements the wire codec: the seed, then the records.
func (e *EvalRequest) EncodeWire(w *wire.Writer) {
	w.ByteSlice(e.Seed)
	w.ByteSlice(e.Packed)
}

// DecodeWire implements the wire codec.
func (e *EvalRequest) DecodeWire(r *wire.Reader) {
	e.Seed = r.ByteSlice()
	e.Packed = r.ByteSlice()
	if len(e.Packed) == 0 {
		e.Packed = nil
	}
}

// EncodeWire implements the wire codec.
func (m *FastBatchRequest) EncodeWire(w *wire.Writer) {
	w.Count(len(m.Evals))
	for _, e := range m.Evals {
		if e == nil {
			w.Nil("evaluation request")
			return
		}
		e.EncodeWire(w)
	}
	if m.OT == nil {
		w.Nil("OT request")
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
		e := new(EvalRequest)
		e.DecodeWire(r)
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

// MarshalBinary implements encoding.BinaryMarshaler; the repository
// benchmark times the request codec through it.
func (m *FastBatchRequest) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *FastBatchRequest) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

// EncodeWire implements the wire codec.
func (m *FastBatchResponse) EncodeWire(w *wire.Writer) {
	if m.OT == nil {
		w.Nil("OT response")
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

// MarshalBinary implements encoding.BinaryMarshaler; the repository
// benchmark times the response codec through it.
func (m *FastBatchResponse) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *FastBatchResponse) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }
