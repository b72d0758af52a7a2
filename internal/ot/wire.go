package ot

import (
	"math/big"

	"repro/internal/wire"
)

// Binary wire encodings for every OT message type. Each type implements
// encoding.BinaryMarshaler/Unmarshaler via a single EncodeWire/DecodeWire
// pair (see internal/wire); the transport's frames carry these
// encodings, and the golden-transcript suite pins their bytes.

// EncodeWire implements the wire codec.
func (s *SenderSetup) EncodeWire(w *wire.Writer) {
	w.Count(len(s.Cs))
	for _, c := range s.Cs {
		w.BigInt(c)
	}
}

// DecodeWire implements the wire codec.
func (s *SenderSetup) DecodeWire(r *wire.Reader) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	s.Cs = make([]*big.Int, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		s.Cs = append(s.Cs, r.BigInt())
		if r.Err() != nil {
			return
		}
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SenderSetup) MarshalBinary() ([]byte, error) { return wire.Marshal(s) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *SenderSetup) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, s) }

// EncodeWire implements the wire codec.
func (c *ReceiverChoice) EncodeWire(w *wire.Writer) { w.BigInt(c.PK0) }

// DecodeWire implements the wire codec.
func (c *ReceiverChoice) DecodeWire(r *wire.Reader) { c.PK0 = r.BigInt() }

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *ReceiverChoice) MarshalBinary() ([]byte, error) { return wire.Marshal(c) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *ReceiverChoice) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, c) }

// EncodeWire implements the wire codec.
func (t *SenderTransfer) EncodeWire(w *wire.Writer) {
	w.BigInt(t.R)
	w.Count(len(t.Cts))
	for _, ct := range t.Cts {
		w.ByteSlice(ct)
	}
}

// DecodeWire implements the wire codec.
func (t *SenderTransfer) DecodeWire(r *wire.Reader) {
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

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *SenderTransfer) MarshalBinary() ([]byte, error) { return wire.Marshal(t) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *SenderTransfer) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, t) }

// choiceSeq is the list encoding of the receiver's public keys, shared by
// BatchChoice and IKNPBaseChoice. The k-of-n setup and transfer, like the
// IKNP base phase's, carry the single SenderSetup / SenderTransfer of
// their one batch.

func encodeChoiceSeq(w *wire.Writer, choices []*ReceiverChoice) {
	w.Count(len(choices))
	for _, c := range choices {
		if c == nil {
			w.BigInt(nil)
			return
		}
		c.EncodeWire(w)
	}
}

func decodeChoiceSeq(r *wire.Reader) []*ReceiverChoice {
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	out := make([]*ReceiverChoice, 0, wire.SliceCap(n))
	for i := 0; i < n; i++ {
		c := new(ReceiverChoice)
		c.DecodeWire(r)
		if r.Err() != nil {
			return nil
		}
		out = append(out, c)
	}
	return out
}

// encodeSetup writes a required inner SenderSetup.
func encodeSetup(w *wire.Writer, s *SenderSetup) {
	if s == nil {
		w.BigInt(nil) // typed ErrNilValue
		return
	}
	s.EncodeWire(w)
}

func decodeSetup(r *wire.Reader) *SenderSetup {
	s := new(SenderSetup)
	s.DecodeWire(r)
	if r.Err() != nil {
		return nil
	}
	return s
}

// encodeTransfer writes a required inner SenderTransfer.
func encodeTransfer(w *wire.Writer, t *SenderTransfer) {
	if t == nil {
		w.BigInt(nil) // typed ErrNilValue
		return
	}
	t.EncodeWire(w)
}

func decodeTransfer(r *wire.Reader) *SenderTransfer {
	t := new(SenderTransfer)
	t.DecodeWire(r)
	if r.Err() != nil {
		return nil
	}
	return t
}

// EncodeWire implements the wire codec.
func (b *BatchSetup) EncodeWire(w *wire.Writer) { encodeSetup(w, b.Setup) }

// DecodeWire implements the wire codec.
func (b *BatchSetup) DecodeWire(r *wire.Reader) { b.Setup = decodeSetup(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *BatchSetup) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *BatchSetup) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

// EncodeWire implements the wire codec.
func (b *BatchChoice) EncodeWire(w *wire.Writer) { encodeChoiceSeq(w, b.Choices) }

// DecodeWire implements the wire codec.
func (b *BatchChoice) DecodeWire(r *wire.Reader) { b.Choices = decodeChoiceSeq(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *BatchChoice) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *BatchChoice) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

// EncodeWire implements the wire codec.
func (b *BatchTransfer) EncodeWire(w *wire.Writer) { encodeTransfer(w, b.Transfer) }

// DecodeWire implements the wire codec.
func (b *BatchTransfer) DecodeWire(r *wire.Reader) { b.Transfer = decodeTransfer(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *BatchTransfer) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *BatchTransfer) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

// EncodeWire implements the wire codec.
func (b *IKNPBaseSetup) EncodeWire(w *wire.Writer) { encodeSetup(w, b.Setup) }

// DecodeWire implements the wire codec.
func (b *IKNPBaseSetup) DecodeWire(r *wire.Reader) { b.Setup = decodeSetup(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *IKNPBaseSetup) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *IKNPBaseSetup) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

// EncodeWire implements the wire codec.
func (b *IKNPBaseChoice) EncodeWire(w *wire.Writer) { encodeChoiceSeq(w, b.Choices) }

// DecodeWire implements the wire codec.
func (b *IKNPBaseChoice) DecodeWire(r *wire.Reader) { b.Choices = decodeChoiceSeq(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *IKNPBaseChoice) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *IKNPBaseChoice) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

// EncodeWire implements the wire codec.
func (b *IKNPBaseTransfer) EncodeWire(w *wire.Writer) { encodeTransfer(w, b.Transfer) }

// DecodeWire implements the wire codec.
func (b *IKNPBaseTransfer) DecodeWire(r *wire.Reader) { b.Transfer = decodeTransfer(r) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *IKNPBaseTransfer) MarshalBinary() ([]byte, error) { return wire.Marshal(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *IKNPBaseTransfer) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, b) }

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

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *IKNPReceiverMsg) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *IKNPReceiverMsg) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

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

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *IKNPSenderMsg) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *IKNPSenderMsg) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

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

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *ExtKofNBatchRequest) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *ExtKofNBatchRequest) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }

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

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *ExtKofNBatchResponse) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *ExtKofNBatchResponse) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, m) }
