package ompe

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/ot"
	"repro/internal/wire"
)

func typedWireErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrOversize) ||
		errors.Is(err, wire.ErrInvalid) ||
		errors.Is(err, wire.ErrNilValue) ||
		errors.Is(err, wire.ErrTrailing)
}

// FuzzOMPEWire throws arbitrary bytes at every OMPE decoder: no panics,
// typed errors only, and clean decodes must re-encode to a canonical
// fixed point.
func FuzzOMPEWire(f *testing.F) {
	samples := ompeWireSamples()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := wire.Marshal(samples[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	for _, data := range fastEdgeSeeds(f) {
		f.Add(data)
	}
	f.Add(seededRequest(f, bigField))
	f.Add(seededRequest(f, field.Default()))
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return
		}
		for _, name := range names {
			proto := samples[name]
			out := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(input, out); err != nil {
				if !typedWireErr(err) {
					t.Fatalf("%s: untyped decode error: %v", name, err)
				}
			} else {
				re := reencode(t, out)
				out2 := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wire.Msg)
				if err := wire.Unmarshal(re, out2); err != nil {
					t.Fatalf("%s: canonical re-encoding does not decode: %v", name, err)
				}
				if !bytes.Equal(reencode(t, out2), re) {
					t.Fatalf("%s: re-encoding is not a fixed point", name)
				}
			}
		}
	})
}

// seededRequest is a well-formed request over f: a point seed and records
// of two elements, 66 bytes each over 2^521−1, the widest the served
// protocols send, and 32 over 2^255−19.
func seededRequest(tb testing.TB, f *field.Field) []byte {
	tb.Helper()
	params := Params{Field: f, PolyDegree: 1, MaskDegree: 2, CoverFactor: 2}
	_, req, err := NewReceiver(params, field.Vec{big.NewInt(3), big.NewInt(4)}, newDetReader("ompe-fuzz-wide-seed"))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := wire.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fastEdgeSeeds are fast-session encodings at the edges of the current
// layout: the retired single-query request (a batch of one without its
// leading sample count and trailing B), a batch response in the shape of
// one 3-of-6 sample over 2^255−19 (2·6·16 tree ciphertexts and six
// 32-byte evaluations, 384 bytes), and the same blob one byte longer,
// which decodes cleanly and is refused only when the receiver recovers
// it.
func fastEdgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	req, err := wire.Marshal(&FastBatchRequest{
		Evals: []*EvalRequest{sampleEval()},
		OT:    &ot.ExtKofNBatchRequest{IKNP: &ot.IKNPReceiverMsg{U: []byte{1, 2}, M: 3}, K: 2, N: 4, B: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	out := [][]byte{req[1 : len(req)-1]}
	for _, size := range []int{384, 385} {
		resp, err := wire.Marshal(&FastBatchResponse{OT: &ot.ExtKofNBatchResponse{Cts: bytes.Repeat([]byte{0x5C}, size)}})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, resp)
	}
	return out
}
