package ot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func sampleSetup() *BatchSetup {
	return &BatchSetup{Cs: fakeElements(2, 12)}
}

// sampleTransfer is a 2-of-3 transfer of 3-byte messages: 2·3 key
// ciphertexts and three messages in one block.
func sampleTransfer() *BatchTransfer {
	return &BatchTransfer{R: fakeElements(1, 7), Cts: onceSentBlob(2, 3, 3)}
}

// baseShapeMsgs are the three batch messages in the shape of the IKNP
// base phase: one constraint, κ public keys, and one R with no
// ciphertexts.
func baseShapeMsgs() (*BatchSetup, *BatchChoice, *BatchTransfer) {
	return &BatchSetup{Cs: fakeElements(1, 9)}, &BatchChoice{PK0s: fakeElements(iknpKappa, 99)},
		&BatchTransfer{R: fakeElements(1, 7)}
}

func otWireSamples() map[string]wire.Msg {
	baseSetup, baseChoice, baseTransfer := baseShapeMsgs()
	return map[string]wire.Msg{
		"BatchSetup":       sampleSetup(),
		"BatchChoice":      &BatchChoice{PK0s: fakeElements(2, 5)},
		"BatchTransfer":    sampleTransfer(),
		"IKNPBaseSetup":    baseSetup,
		"IKNPBaseChoice":   baseChoice,
		"IKNPBaseTransfer": baseTransfer,
		"IKNPReceiverMsg":  &IKNPReceiverMsg{U: bytes.Repeat([]byte{0x5A}, 64), M: 17},
		"ExtKofNBatchRequest": &ExtKofNBatchRequest{
			IKNP: &IKNPReceiverMsg{U: []byte{4}, M: 1}, K: 1, N: 2, B: 3,
		},
		"ExtKofNBatchResponse": &ExtKofNBatchResponse{Cts: []byte{8, 8}},
		"IKNPSenderState": &IKNPSenderState{
			S: bytes.Repeat([]byte{0xA5}, iknpKappa/8), Seeds: bytes.Repeat([]byte{0x3C}, iknpKappa*treeKeyLen), Batch: 7,
		},
		"IKNPReceiverState": &IKNPReceiverState{
			Seed0: bytes.Repeat([]byte{0x11}, iknpKappa*treeKeyLen), Seed1: bytes.Repeat([]byte{0x22}, iknpKappa*treeKeyLen), Batch: 9,
		},
	}
}

// newLike returns a fresh zero value of m's concrete type.
func newLike(m wire.Msg) wire.Msg {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wire.Msg)
}

// reencode canonicalizes a message for equality: two messages are equal
// iff their encodings are byte-identical (the codec is canonical).
func reencode(t *testing.T, m wire.Msg) []byte {
	t.Helper()
	data, err := wire.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return data
}

func TestOTWireRoundTrips(t *testing.T) {
	for name, in := range otWireSamples() {
		t.Run(name, func(t *testing.T) {
			data, err := wire.Marshal(in)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			out := newLike(in)
			if err := wire.Unmarshal(data, out); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !bytes.Equal(reencode(t, out), data) {
				t.Fatalf("slice round trip mismatch:\n in: %#v\nout: %#v", in, out)
			}

			// Trailing garbage after the message must be rejected.
			if err := wire.Unmarshal(append(append([]byte{}, data...), 0xFF), newLike(in)); !errors.Is(err, wire.ErrTrailing) {
				t.Fatalf("trailing byte: got %v, want ErrTrailing", err)
			}

			// Every strict prefix of the encoding fails with some typed error.
			for n := 0; n < len(data); n++ {
				if err := wire.Unmarshal(data[:n], newLike(in)); err == nil {
					t.Fatalf("prefix %d/%d decoded cleanly", n, len(data))
				}
			}
		})
	}
}

// TestOTWireNilElements: a message missing a required inner message fails
// to encode with ErrNilValue. The batch messages and the extended k-of-n
// response have no such field: a nil blob goes out as an empty one,
// which the protocol steps refuse by its length.
func TestOTWireNilElements(t *testing.T) {
	cases := map[string]wire.Msg{
		"nil-iknp-request": &ExtKofNBatchRequest{K: 1, N: 2, B: 1},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := wire.Marshal(m); !errors.Is(err, wire.ErrNilValue) {
				t.Fatalf("got %v, want ErrNilValue", err)
			}
		})
	}
}
