package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Session resumption for the IKNP extension. Once the base phase is done,
// each endpoint's entire cryptographic position is a handful of AES keys
// plus the lockstep batch counter: the sender holds its packed choice
// vector s and the κ recovered seeds, the receiver holds its κ seed
// pairs. Snapshot captures that position; Restore rebuilds a live
// endpoint from it with the counter carried forward, never reset, so a
// resumed session's PRG columns and pads start exactly where the previous
// session stopped — the (column, batch, counter) domain separation in
// prgInto guarantees no pad or correlation block is ever derived twice
// across the whole resumption chain.
//
// The transport seals these states inside opaque tickets (the sender
// state lives server-side inside the ticket it mints; the receiver state
// stays in the client's memory next to the ticket). Neither state is ever
// sent in the clear: the sender state contains s, whose secrecy is what
// keeps the key the receiver did not choose out of its reach.

// ErrIKNPResume reports a malformed or inconsistent resumption state.
var ErrIKNPResume = errors.New("ot: invalid IKNP resume state")

// IKNPSenderState is the serializable position of an extension sender
// whose base phase has completed: the secret choice vector, the κ
// recovered base seeds (flat 16-byte rows), and the batch counter.
type IKNPSenderState struct {
	S     []byte
	Seeds []byte
	Batch uint32
}

// IKNPReceiverState is the serializable position of an extension
// receiver: the κ seed pairs (flat 16-byte rows per side) and the batch
// counter.
type IKNPReceiverState struct {
	Seed0 []byte
	Seed1 []byte
	Batch uint32
}

// Snapshot captures the sender's post-base-phase state. It fails while
// the base phase is still in flight (there is nothing coherent to save)
// and on endpoints built before seed retention (never the case for
// endpoints this package constructs).
func (s *IKNPSender) Snapshot() (*IKNPSenderState, error) {
	if s.baseReceiver != nil || len(s.seeds) != iknpKappa*treeKeyLen {
		return nil, fmt.Errorf("%w: sender base phase incomplete", ErrIKNPResume)
	}
	st := &IKNPSenderState{
		S:     append([]byte(nil), s.s...),
		Seeds: append([]byte(nil), s.seeds...),
		Batch: s.batch,
	}
	return st, nil
}

// Snapshot captures the receiver's post-base-phase state.
func (r *IKNPReceiver) Snapshot() (*IKNPReceiverState, error) {
	if r.baseSender != nil {
		return nil, fmt.Errorf("%w: receiver base phase incomplete", ErrIKNPResume)
	}
	st := &IKNPReceiverState{
		Seed0: make([]byte, iknpKappa*treeKeyLen),
		Seed1: make([]byte, iknpKappa*treeKeyLen),
		Batch: r.batch,
	}
	for i := 0; i < iknpKappa; i++ {
		if len(r.seed0[i]) != treeKeyLen || len(r.seed1[i]) != treeKeyLen {
			return nil, fmt.Errorf("%w: seed %d malformed", ErrIKNPResume, i)
		}
		copy(st.Seed0[i*treeKeyLen:], r.seed0[i])
		copy(st.Seed1[i*treeKeyLen:], r.seed1[i])
	}
	return st, nil
}

// RestoreIKNPSender rebuilds a live extension sender from a snapshot. The
// batch counter resumes at the saved value: the first Keys after a
// restore advances it past every batch the previous session consumed.
func RestoreIKNPSender(st *IKNPSenderState) (*IKNPSender, error) {
	if st == nil || len(st.S) != iknpKappa/8 || len(st.Seeds) != iknpKappa*treeKeyLen {
		return nil, fmt.Errorf("%w: bad sender state shape", ErrIKNPResume)
	}
	send := &IKNPSender{
		s:       append([]byte(nil), st.S...),
		seeds:   append([]byte(nil), st.Seeds...),
		ciphers: make([]cipher.Block, iknpKappa),
		batch:   st.Batch,
	}
	for i := 0; i < iknpKappa; i++ {
		blk, err := aes.NewCipher(send.seeds[i*treeKeyLen : (i+1)*treeKeyLen])
		if err != nil {
			return nil, err
		}
		send.ciphers[i] = blk
	}
	return send, nil
}

// RestoreIKNPReceiver rebuilds a live extension receiver from a snapshot,
// carrying the batch counter forward (see RestoreIKNPSender).
func RestoreIKNPReceiver(st *IKNPReceiverState) (*IKNPReceiver, error) {
	if st == nil || len(st.Seed0) != iknpKappa*treeKeyLen || len(st.Seed1) != iknpKappa*treeKeyLen {
		return nil, fmt.Errorf("%w: bad receiver state shape", ErrIKNPResume)
	}
	recv := &IKNPReceiver{
		seed0:    make([][]byte, iknpKappa),
		seed1:    make([][]byte, iknpKappa),
		ciphers0: make([]cipher.Block, iknpKappa),
		ciphers1: make([]cipher.Block, iknpKappa),
		batch:    st.Batch,
	}
	for i := 0; i < iknpKappa; i++ {
		recv.seed0[i] = append([]byte(nil), st.Seed0[i*treeKeyLen:(i+1)*treeKeyLen]...)
		recv.seed1[i] = append([]byte(nil), st.Seed1[i*treeKeyLen:(i+1)*treeKeyLen]...)
		var err error
		if recv.ciphers0[i], err = aes.NewCipher(recv.seed0[i]); err != nil {
			return nil, err
		}
		if recv.ciphers1[i], err = aes.NewCipher(recv.seed1[i]); err != nil {
			return nil, err
		}
	}
	return recv, nil
}

// EncodeWire implements the wire codec.
func (st *IKNPSenderState) EncodeWire(w *wire.Writer) {
	w.ByteSlice(st.S)
	w.ByteSlice(st.Seeds)
	w.Uvarint(uint64(st.Batch))
}

// DecodeWire implements the wire codec.
func (st *IKNPSenderState) DecodeWire(r *wire.Reader) {
	st.S = r.ByteSlice()
	st.Seeds = r.ByteSlice()
	// The counter is 32-bit on the endpoints; wider hostile values are
	// truncated here and rejected by the shape checks in Restore.
	st.Batch = uint32(r.Uvarint())
}

// EncodeWire implements the wire codec.
func (st *IKNPReceiverState) EncodeWire(w *wire.Writer) {
	w.ByteSlice(st.Seed0)
	w.ByteSlice(st.Seed1)
	w.Uvarint(uint64(st.Batch))
}

// DecodeWire implements the wire codec.
func (st *IKNPReceiverState) DecodeWire(r *wire.Reader) {
	st.Seed0 = r.ByteSlice()
	st.Seed1 = r.ByteSlice()
	st.Batch = uint32(r.Uvarint())
}
