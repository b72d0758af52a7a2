package ompe

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ot"
	"repro/internal/wire"
)

func sampleEval() *EvalRequest {
	return &EvalRequest{Seed: bytes.Repeat([]byte{0x5E}, ot.SeedLen), Packed: []byte{0xDE, 0xAD}}
}

func ompeWireSamples() map[string]wire.Msg {
	return map[string]wire.Msg{
		"EvalRequest": sampleEval(),
		"FastBatchRequest": &FastBatchRequest{
			Evals: []*EvalRequest{sampleEval(), sampleEval()},
			OT:    &ot.ExtKofNBatchRequest{IKNP: &ot.IKNPReceiverMsg{U: []byte{7}, M: 1}, K: 1, N: 2, B: 2},
		},
		"FastBatchResponse": &FastBatchResponse{
			OT: &ot.ExtKofNBatchResponse{Cts: []byte{1, 1}},
		},
	}
}

func reencode(t *testing.T, m wire.Msg) []byte {
	t.Helper()
	data, err := wire.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return data
}

func TestOMPEWireRoundTrips(t *testing.T) {
	for name, in := range ompeWireSamples() {
		t.Run(name, func(t *testing.T) {
			data, err := wire.Marshal(in)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(data, out); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !bytes.Equal(reencode(t, out), data) {
				t.Fatalf("slice round trip mismatch")
			}

			out3 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(append(append([]byte{}, data...), 0xFF), out3); !errors.Is(err, wire.ErrTrailing) {
				t.Fatalf("trailing byte: got %v, want ErrTrailing", err)
			}

			for n := 0; n < len(data); n++ {
				out4 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
				if err := wire.Unmarshal(data[:n], out4); err == nil {
					t.Fatalf("prefix %d/%d decoded cleanly", n, len(data))
				}
			}
		})
	}
}

func TestOMPEWireNilInner(t *testing.T) {
	cases := map[string]wire.Msg{
		"BatchRequest-nil-eval": &FastBatchRequest{Evals: []*EvalRequest{nil}, OT: &ot.ExtKofNBatchRequest{IKNP: &ot.IKNPReceiverMsg{}, K: 1, N: 1, B: 1}},
		"BatchRequest-nil-ot":   &FastBatchRequest{Evals: []*EvalRequest{sampleEval()}},
		"BatchResponse-nil-ot":  &FastBatchResponse{},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := wire.Marshal(m); !errors.Is(err, wire.ErrNilValue) {
				t.Fatalf("got %v, want ErrNilValue", err)
			}
		})
	}
}
