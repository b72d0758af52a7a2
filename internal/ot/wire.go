package ot

import "repro/internal/wire"

// Binary wire encodings for every OT message type. Each type's one
// EncodeWire/DecodeWire pair is its wire.Msg codec (see internal/wire);
// the transport's frames carry these encodings, and the golden-transcript
// suite pins their bytes. The three batch messages carry every
// Naor–Pinkas transfer, a k-of-n and the IKNP base phase alike, each
// field one length-prefixed blob of fixed-width elements or slots
// (naorpinkas.go), so a batch message of a given shape has one length.

// EncodeWire implements the wire codec.
func (s *BatchSetup) EncodeWire(w *wire.Writer) { w.ByteSlice(s.Cs) }

// DecodeWire implements the wire codec.
func (s *BatchSetup) DecodeWire(r *wire.Reader) { s.Cs = r.ByteSlice() }

// EncodeWire implements the wire codec.
func (c *BatchChoice) EncodeWire(w *wire.Writer) { w.ByteSlice(c.PK0s) }

// DecodeWire implements the wire codec.
func (c *BatchChoice) DecodeWire(r *wire.Reader) { c.PK0s = r.ByteSlice() }

// EncodeWire implements the wire codec.
func (t *BatchTransfer) EncodeWire(w *wire.Writer) {
	w.ByteSlice(t.R)
	w.ByteSlice(t.Cts)
}

// DecodeWire implements the wire codec.
func (t *BatchTransfer) DecodeWire(r *wire.Reader) {
	t.R = r.ByteSlice()
	t.Cts = r.ByteSlice()
}

// EncodeWire implements the wire codec.
func (m *IKNPReceiverMsg) EncodeWire(w *wire.Writer) {
	w.ByteSlice(m.U)
	w.Int(m.M)
}

// DecodeWire implements the wire codec.
func (m *IKNPReceiverMsg) DecodeWire(r *wire.Reader) {
	m.U = r.ByteSlice()
	m.M = r.Int()
}

// EncodeWire implements the wire codec.
func (m *ExtKofNBatchRequest) EncodeWire(w *wire.Writer) {
	if m.IKNP == nil {
		w.Nil("IKNP receiver message")
		return
	}
	m.IKNP.EncodeWire(w)
	w.Int(m.K)
	w.Int(m.N)
	w.Int(m.B)
}

// DecodeWire implements the wire codec.
func (m *ExtKofNBatchRequest) DecodeWire(r *wire.Reader) {
	m.IKNP = new(IKNPReceiverMsg)
	m.IKNP.DecodeWire(r)
	m.K = r.Int()
	m.N = r.Int()
	m.B = r.Int()
}

// EncodeWire implements the wire codec.
func (m *ExtKofNBatchResponse) EncodeWire(w *wire.Writer) { w.ByteSlice(m.Cts) }

// DecodeWire implements the wire codec.
func (m *ExtKofNBatchResponse) DecodeWire(r *wire.Reader) { m.Cts = r.ByteSlice() }
