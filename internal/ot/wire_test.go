package ot

import (
	"bytes"
	"encoding"
	"errors"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// wireMsg is the full serialization contract every OT wire type must
// satisfy: the codec pair plus its byte marshalers.
type wireMsg interface {
	wire.Msg
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func sampleSetup() *SenderSetup {
	return &SenderSetup{Cs: []*big.Int{big.NewInt(12345), new(big.Int).Lsh(big.NewInt(7), 300)}}
}

func sampleChoice() *ReceiverChoice {
	return &ReceiverChoice{PK0: new(big.Int).Lsh(big.NewInt(99), 120)}
}

func sampleTransfer() *SenderTransfer {
	return &SenderTransfer{R: big.NewInt(31337), Cts: [][]byte{{1, 2}, {}, {3, 4, 5}}}
}

func otWireSamples() map[string]wireMsg {
	return map[string]wireMsg{
		"SenderSetup":      sampleSetup(),
		"ReceiverChoice":   sampleChoice(),
		"SenderTransfer":   sampleTransfer(),
		"BatchSetup":       &BatchSetup{Setup: sampleSetup()},
		"BatchChoice":      &BatchChoice{Choices: []*ReceiverChoice{sampleChoice()}},
		"BatchTransfer":    &BatchTransfer{Transfer: sampleTransfer()},
		"IKNPBaseSetup":    &IKNPBaseSetup{Setup: sampleSetup()},
		"IKNPBaseChoice":   &IKNPBaseChoice{Choices: []*ReceiverChoice{sampleChoice(), sampleChoice()}},
		"IKNPBaseTransfer": &IKNPBaseTransfer{Transfer: sampleTransfer()},
		"IKNPReceiverMsg":  &IKNPReceiverMsg{U: bytes.Repeat([]byte{0x5A}, 64), M: 17},
		"IKNPSenderMsg":    &IKNPSenderMsg{Y0: []byte{1, 2, 3, 4}, Y1: []byte{5, 6, 7, 8}, MsgLen: 2},
		"ExtKofNBatchRequest": &ExtKofNBatchRequest{
			IKNP: &IKNPReceiverMsg{U: []byte{4}, M: 1}, K: 1, N: 2, B: 3,
		},
		"ExtKofNBatchResponse": &ExtKofNBatchResponse{
			IKNP: &IKNPSenderMsg{Y0: []byte{3}, Y1: []byte{4}, MsgLen: 1}, Cts: []byte{8, 8}, MsgLen: 2,
		},
		"IKNPSenderState": &IKNPSenderState{
			S: bytes.Repeat([]byte{0xA5}, iknpKappa/8), Seeds: bytes.Repeat([]byte{0x3C}, iknpKappa*treeKeyLen), Batch: 7,
		},
		"IKNPReceiverState": &IKNPReceiverState{
			Seed0: bytes.Repeat([]byte{0x11}, iknpKappa*treeKeyLen), Seed1: bytes.Repeat([]byte{0x22}, iknpKappa*treeKeyLen), Batch: 9,
		},
	}
}

// reencode canonicalizes a message for equality: two messages are equal
// iff their encodings are byte-identical (the codec is canonical).
func reencode(t *testing.T, m wireMsg) []byte {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return data
}

func TestOTWireRoundTrips(t *testing.T) {
	for name, in := range otWireSamples() {
		t.Run(name, func(t *testing.T) {
			data, err := in.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wireMsg)
			if err := out.UnmarshalBinary(data); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			if !bytes.Equal(reencode(t, out), data) {
				t.Fatalf("slice round trip mismatch:\n in: %#v\nout: %#v", in, out)
			}

			// Trailing garbage after the message must be rejected.
			out3 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wireMsg)
			if err := out3.UnmarshalBinary(append(append([]byte{}, data...), 0xFF)); !errors.Is(err, wire.ErrTrailing) {
				t.Fatalf("trailing byte: got %v, want ErrTrailing", err)
			}

			// Every strict prefix of the encoding fails with some typed error.
			for n := 0; n < len(data); n++ {
				out4 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wireMsg)
				if err := out4.UnmarshalBinary(data[:n]); err == nil {
					t.Fatalf("prefix %d/%d decoded cleanly", n, len(data))
				}
			}
		})
	}
}

func TestOTWireNilElements(t *testing.T) {
	cases := map[string]wireMsg{
		"nil-setup-elem":    &BatchSetup{},
		"nil-transfer":      &BatchTransfer{},
		"nil-bigint":        &SenderSetup{Cs: []*big.Int{nil}},
		"nil-pk0":           &ReceiverChoice{},
		"nil-iknp-request":  &ExtKofNBatchRequest{K: 1, N: 2, B: 1},
		"nil-iknp-response": &ExtKofNBatchResponse{Cts: []byte{1}, MsgLen: 1},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := m.MarshalBinary(); !errors.Is(err, wire.ErrNilValue) {
				t.Fatalf("got %v, want ErrNilValue", err)
			}
		})
	}
}
