package ot

import (
	"math/big"

	"repro/internal/wire"
)

// Binary wire encodings for every OT message type. Each type's one
// EncodeWire/DecodeWire pair is its wire.Msg codec (see internal/wire);
// the transport's frames carry these encodings, and the golden-transcript
// suite pins their bytes. The three batch messages carry every
// Naor–Pinkas transfer, a k-of-n and the IKNP base phase alike.

// EncodeWire implements the wire codec.
func (s *BatchSetup) EncodeWire(w *wire.Writer) { encodeBigInts(w, s.Cs) }

// DecodeWire implements the wire codec.
func (s *BatchSetup) DecodeWire(r *wire.Reader) { s.Cs = decodeBigInts(r) }

// EncodeWire implements the wire codec.
func (c *BatchChoice) EncodeWire(w *wire.Writer) { encodeBigInts(w, c.PK0s) }

// DecodeWire implements the wire codec.
func (c *BatchChoice) DecodeWire(r *wire.Reader) { c.PK0s = decodeBigInts(r) }

// EncodeWire implements the wire codec.
func (t *BatchTransfer) EncodeWire(w *wire.Writer) {
	w.BigInt(t.R)
	w.Count(len(t.Cts))
	for _, ct := range t.Cts {
		w.ByteSlice(ct)
	}
}

// DecodeWire implements the wire codec.
func (t *BatchTransfer) DecodeWire(r *wire.Reader) {
	t.R = r.BigInt()
	n := r.Count()
	if r.Err() != nil {
		return
	}
	t.Cts = make([][]byte, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		t.Cts = append(t.Cts, r.ByteSlice())
		if r.Err() != nil {
			return
		}
	}
}

func encodeBigInts(w *wire.Writer, xs []*big.Int) {
	w.Count(len(xs))
	for _, x := range xs {
		w.BigInt(x)
	}
}

func decodeBigInts(r *wire.Reader) []*big.Int {
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	out := make([]*big.Int, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		out = append(out, r.BigInt())
		if r.Err() != nil {
			return nil
		}
	}
	return out
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
func (m *IKNPSenderMsg) EncodeWire(w *wire.Writer) {
	w.ByteSlice(m.Y0)
	w.ByteSlice(m.Y1)
	w.Int(m.MsgLen)
}

// DecodeWire implements the wire codec.
func (m *IKNPSenderMsg) DecodeWire(r *wire.Reader) {
	m.Y0 = r.ByteSlice()
	m.Y1 = r.ByteSlice()
	m.MsgLen = r.Int()
}

// encodeIKNPReceiver writes a required inner IKNP receiver message.
func encodeIKNPReceiver(w *wire.Writer, m *IKNPReceiverMsg) {
	if m == nil {
		w.BigInt(nil) // typed ErrNilValue
		return
	}
	m.EncodeWire(w)
}

func decodeIKNPReceiver(r *wire.Reader) *IKNPReceiverMsg {
	m := new(IKNPReceiverMsg)
	m.DecodeWire(r)
	if r.Err() != nil {
		return nil
	}
	return m
}

func encodeIKNPSender(w *wire.Writer, m *IKNPSenderMsg) {
	if m == nil {
		w.BigInt(nil)
		return
	}
	m.EncodeWire(w)
}

func decodeIKNPSender(r *wire.Reader) *IKNPSenderMsg {
	m := new(IKNPSenderMsg)
	m.DecodeWire(r)
	if r.Err() != nil {
		return nil
	}
	return m
}

// EncodeWire implements the wire codec.
func (m *ExtKofNBatchRequest) EncodeWire(w *wire.Writer) {
	encodeIKNPReceiver(w, m.IKNP)
	w.Int(m.K)
	w.Int(m.N)
	w.Int(m.B)
}

// DecodeWire implements the wire codec.
func (m *ExtKofNBatchRequest) DecodeWire(r *wire.Reader) {
	m.IKNP = decodeIKNPReceiver(r)
	m.K = r.Int()
	m.N = r.Int()
	m.B = r.Int()
}

// EncodeWire implements the wire codec.
func (m *ExtKofNBatchResponse) EncodeWire(w *wire.Writer) {
	encodeIKNPSender(w, m.IKNP)
	w.ByteSlice(m.Cts)
	w.Int(m.MsgLen)
}

// DecodeWire implements the wire codec.
func (m *ExtKofNBatchResponse) DecodeWire(r *wire.Reader) {
	m.IKNP = decodeIKNPSender(r)
	m.Cts = r.ByteSlice()
	m.MsgLen = r.Int()
}
