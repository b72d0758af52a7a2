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
	f.Add(widePackedSeed(f))
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

// widePackedSeed is a well-formed request over 2^521−1: records of
// three 66-byte elements, the widest the served protocols send.
func widePackedSeed(tb testing.TB) []byte {
	tb.Helper()
	params := Params{Field: bigField, PolyDegree: 1, MaskDegree: 2, CoverFactor: 2}
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
// leading sample count and trailing B), and a batch response whose
// declared MsgLen wraps k·n·MsgLen, which decodes cleanly and is refused
// only when the receiver recovers it.
func fastEdgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	req, err := wire.Marshal(&FastBatchRequest{
		Evals: []*EvalRequest{sampleEval()},
		OT:    &ot.ExtKofNBatchRequest{IKNP: &ot.IKNPReceiverMsg{U: []byte{1, 2}, M: 3}, K: 2, N: 4, B: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := wire.Marshal(&FastBatchResponse{OT: &ot.ExtKofNBatchResponse{
		IKNP: &ot.IKNPSenderMsg{Y0: []byte{5}, Y1: []byte{6}, MsgLen: 1}, Cts: make([]byte, 24), MsgLen: 2 + 1<<62,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{req[1 : len(req)-1], resp}
}
