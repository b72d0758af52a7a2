package ot

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wire"
)

// typedWireErr reports whether err is (a wrap of) one of the codec's
// typed decode errors — the only errors a decoder is allowed to return.
func typedWireErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrOversize) ||
		errors.Is(err, wire.ErrInvalid) ||
		errors.Is(err, wire.ErrNilValue) ||
		errors.Is(err, wire.ErrTrailing)
}

// FuzzOTWire throws arbitrary bytes at every OT decoder. The contract: no panics, no untyped errors, bounded
// allocation, and any input that decodes cleanly must re-encode to a
// canonical form that round-trips to itself (varints admit non-minimal
// encodings, so the re-encoding need not equal the input).
func FuzzOTWire(f *testing.F) {
	samples := otWireSamples()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := samples[name].MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	// Maximal varint: a hostile length prefix with no payload behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// Wrong-shape messages: the pre-batch base setup (κ one-constraint
	// setups), base transfers with 2κ−1 ciphertexts and with a short one,
	// and a k-of-n setup and transfer in their per-instance list layout.
	for _, data := range wrongShapeBaseMsgs(f) {
		f.Add(data)
	}
	for _, data := range kofnEdgeSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return
		}
		for _, name := range names {
			proto := samples[name]
			out := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wireMsg)
			if err := out.UnmarshalBinary(input); err != nil {
				if !typedWireErr(err) {
					t.Fatalf("%s: untyped decode error: %v", name, err)
				}
			} else {
				re := reencode(t, out)
				out2 := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wireMsg)
				if err := out2.UnmarshalBinary(re); err != nil {
					t.Fatalf("%s: canonical re-encoding does not decode: %v", name, err)
				}
				if !bytes.Equal(reencode(t, out2), re) {
					t.Fatalf("%s: re-encoding is not a fixed point", name)
				}
			}
		}
	})
}

// LegacySeq encodes setups or transfers in the list layout BatchSetup and
// BatchTransfer had while every k-of-n instance carried its own
// constraints and R (through 58f2b26): a count, then each message. The
// IKNP base setup of a peer from before the κ base OTs shared one
// constraint has the same layout. Exported for the external tests.
func LegacySeq[M interface{ EncodeWire(*wire.Writer) }](msgs []M) []byte {
	w := wire.NewAppendWriter(nil)
	w.Count(len(msgs))
	for _, m := range msgs {
		m.EncodeWire(w)
	}
	return w.Bytes()
}

// legacyKofN returns a 9-of-18 setup and transfer in the list layout of
// LegacySeq: nine setups of 17 constraints, nine transfers of one R and
// 18 ciphertexts each.
func legacyKofN() (setup, transfer []byte) {
	const k, n = 9, 18
	setups := make([]*SenderSetup, k)
	transfers := make([]*SenderTransfer, k)
	for i := range setups {
		cs := make([]*big.Int, n-1)
		for j := range cs {
			cs[j] = big.NewInt(int64(100*i + j + 1))
		}
		cts := make([][]byte, n)
		for j := range cts {
			cts[j] = bytes.Repeat([]byte{byte(j)}, 16)
		}
		setups[i] = &SenderSetup{Cs: cs}
		transfers[i] = &SenderTransfer{R: big.NewInt(int64(31337 + i)), Cts: cts}
	}
	return LegacySeq(setups), LegacySeq(transfers)
}

// wrongShapeBaseMsgs are well-encoded messages of the wrong shape: for the
// IKNP base phase, and the k-of-n setup and transfer in their old
// per-instance layout.
func wrongShapeBaseMsgs(tb testing.TB) [][]byte {
	tb.Helper()
	legacy := make([]*SenderSetup, iknpKappa)
	for i := range legacy {
		legacy[i] = &SenderSetup{Cs: []*big.Int{big.NewInt(int64(9 + i))}}
	}
	cts := make([][]byte, 2*iknpKappa-1)
	for i := range cts {
		cts[i] = bytes.Repeat([]byte{byte(i)}, treeKeyLen)
	}
	short := append([][]byte{{1, 2, 3}}, cts...)[:2*iknpKappa]
	out := [][]byte{LegacySeq(legacy)}
	for _, m := range []wireMsg{
		&IKNPBaseTransfer{Transfer: &SenderTransfer{R: big.NewInt(31337), Cts: cts}},
		&IKNPBaseTransfer{Transfer: &SenderTransfer{R: big.NewInt(31337), Cts: short}},
	} {
		data, err := m.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	setup, transfer := legacyKofN()
	return append(out, setup, transfer)
}

// kofnEdgeSeeds are k-of-n encodings at the edges of the current layout:
// the retired single-query request (a batch request without its trailing
// B), and a response whose declared MsgLen wraps k·n·MsgLen, which decodes
// cleanly and is refused only by Recover.
func kofnEdgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	req, err := (&ExtKofNBatchRequest{IKNP: &IKNPReceiverMsg{U: []byte{9, 9}, M: 3}, K: 2, N: 5, B: 1}).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := (&ExtKofNBatchResponse{
		IKNP: &IKNPSenderMsg{Y0: []byte{1}, Y1: []byte{2}, MsgLen: 1}, Cts: make([]byte, 24), MsgLen: 2 + 1<<62,
	}).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{req[:len(req)-1], resp}
}
