package ot

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/ec25519"
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

// FuzzOTWire throws arbitrary bytes at every OT decoder — the three batch
// messages, the IKNP extension messages, the extended k-of-n messages and
// the resumption states. The contract: no panics, no untyped errors, bounded
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
		data, err := wire.Marshal(samples[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Decode into each type once: the base-phase samples share the batch
	// types.
	decoders := make(map[string]wire.Msg)
	for _, m := range samples {
		decoders[fmt.Sprintf("%T", m)] = m
	}
	f.Add([]byte{})
	// Maximal varint: a hostile length prefix with no payload behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// Wrong-shape messages: the pre-batch base setup (κ one-constraint
	// setups), base transfers that carry ciphertexts, a k-of-n setup and
	// transfer in their per-instance list layout, and the current 9-of-18
	// setup, choice and transfer, which travel under the base phase's
	// tags.
	for _, data := range wrongShapeBaseMsgs(f) {
		f.Add(data)
	}
	for _, data := range kofnEdgeSeeds(f) {
		f.Add(data)
	}
	for _, data := range elementWidthSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return
		}
		for typ, proto := range decoders {
			out := newLike(proto)
			if err := wire.Unmarshal(input, out); err != nil {
				if !typedWireErr(err) {
					t.Fatalf("%s: untyped decode error: %v", typ, err)
				}
			} else {
				re := reencode(t, out)
				out2 := newLike(proto)
				if err := wire.Unmarshal(re, out2); err != nil {
					t.Fatalf("%s: canonical re-encoding does not decode: %v", typ, err)
				}
				if !bytes.Equal(reencode(t, out2), re) {
					t.Fatalf("%s: re-encoding is not a fixed point", typ)
				}
			}
		}
	})
}

// LegacySeq encodes setups or transfers in the list layout BatchSetup and
// BatchTransfer had while every k-of-n instance carried its own
// constraints and R (through 58f2b26): a count, then each message, each
// in today's layout of one batch. The IKNP base setup of a peer from
// before the κ base OTs shared one constraint has the same layout.
// Exported for the external tests.
func LegacySeq[M interface{ EncodeWire(*wire.Writer) }](msgs []M) []byte {
	w := wire.NewAppendWriter(nil)
	w.Count(len(msgs))
	for _, m := range msgs {
		m.EncodeWire(w)
	}
	return w.Bytes()
}

// fakeElements returns count 32-byte stand-ins for element encodings,
// distinct per seed. The codec never decodes a point, so they need not be
// curve points.
func fakeElements(count int, seed byte) []byte {
	out := make([]byte, count*ec25519.PointLen)
	for i := range out {
		out[i] = seed + byte(i/ec25519.PointLen)
	}
	return out
}

// slotBlob returns slots ciphertexts of width bytes each, slot j filled
// with byte j.
func slotBlob(slots, width int) []byte {
	out := make([]byte, 0, slots*width)
	for j := 0; j < slots; j++ {
		out = append(out, bytes.Repeat([]byte{byte(j)}, width)...)
	}
	return out
}

// onceSentBlob returns a stand-in for the once-sent block of a k-of-n
// over n messages of w bytes: (k−1)·n 16-byte key ciphertexts, then n
// messages.
func onceSentBlob(k, n, w int) []byte {
	return append(slotBlob((k-1)*n, treeKeyLen), slotBlob(n, w)...)
}

// legacyKofN returns a 9-of-18 setup and transfer in the list layout of
// LegacySeq: nine setups of 17 constraints, nine transfers of one R and
// 18 ciphertexts each.
func legacyKofN() (setup, transfer []byte) {
	const k, n = 9, 18
	setups := make([]*BatchSetup, k)
	transfers := make([]*BatchTransfer, k)
	for i := range setups {
		setups[i] = &BatchSetup{Cs: fakeElements(n-1, byte(100+i))}
		transfers[i] = &BatchTransfer{R: fakeElements(1, byte(i)), Cts: slotBlob(n, 16)}
	}
	return LegacySeq(setups), LegacySeq(transfers)
}

// wrongShapeBaseMsgs are well-encoded messages of the wrong shape: for the
// IKNP base phase, a base transfer that still carries the 2κ seed
// ciphertexts base phases sent before the seeds became the batch's slot
// keys, one that carries a single ciphertext, the k-of-n setup and
// transfer in their old per-instance layout, and a current 9-of-18
// k-of-n, whose messages share their types and frame tags with the base
// phase's.
func wrongShapeBaseMsgs(tb testing.TB) [][]byte {
	tb.Helper()
	legacy := make([]*BatchSetup, iknpKappa)
	for i := range legacy {
		legacy[i] = &BatchSetup{Cs: fakeElements(1, byte(9+i))}
	}
	kofnSetup, kofnChoice, kofnTransfer := kofnShapeMsgs()
	out := [][]byte{LegacySeq(legacy)}
	for _, m := range []wire.Msg{
		&BatchTransfer{R: fakeElements(1, 7), Cts: slotBlob(2*iknpKappa, treeKeyLen)},
		&BatchTransfer{R: fakeElements(1, 7), Cts: slotBlob(1, treeKeyLen)},
		kofnSetup, kofnChoice, kofnTransfer,
	} {
		data, err := wire.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	setup, transfer := legacyKofN()
	return append(out, setup, transfer)
}

// kofnShapeMsgs are the three messages of a 9-of-18 transfer, the
// similarity protocol's area round, in the current layout of one batch:
// 17 constraints, nine public keys, and one R with the once-sent block
// of 9·18 key ciphertexts and 18 messages of 32 bytes.
func kofnShapeMsgs() (*BatchSetup, *BatchChoice, *BatchTransfer) {
	const k, n = 9, 18
	return &BatchSetup{Cs: fakeElements(n-1, 1)}, &BatchChoice{PK0s: fakeElements(k, 50)},
		&BatchTransfer{R: fakeElements(1, 7), Cts: onceSentBlob(k, n, 32)}
}

// elementWidthSeeds are batch messages whose blobs do not hold whole
// elements or a once-sent block, which decode cleanly and are refused
// only by the protocol steps: a 31-byte and a 33-byte element, empty
// blobs, a 9-of-18 block five bytes short, and the k·n slots of 32 bytes
// a 9-of-18 carried before each message was sent once.
func elementWidthSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	block := onceSentBlob(9, 18, 32)
	var out [][]byte
	for _, m := range []wire.Msg{
		&BatchSetup{Cs: fakeElements(1, 3)[:31]},
		&BatchChoice{PK0s: append([]byte{0}, fakeElements(1, 4)...)},
		&BatchTransfer{},
		&BatchTransfer{R: fakeElements(1, 7), Cts: block[:len(block)-5]},
		&BatchTransfer{R: fakeElements(1, 7), Cts: slotBlob(9*18, 32)},
	} {
		data, err := wire.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// kofnEdgeSeeds are k-of-n encodings at the edges of the current layout:
// the retired single-query request (a batch request without its trailing
// B), a response in the shape of a batch of two 3-of-6 transfers of
// 32-byte messages (2·(2·6·16 + 6·32) bytes), and the same blob one byte
// longer, which decodes cleanly and is refused only by Recover.
func kofnEdgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	req, err := wire.Marshal(&ExtKofNBatchRequest{IKNP: &IKNPReceiverMsg{U: []byte{9, 9}, M: 3}, K: 2, N: 5, B: 1})
	if err != nil {
		tb.Fatal(err)
	}
	out := [][]byte{req[:len(req)-1]}
	for _, size := range []int{768, 769} {
		resp, err := wire.Marshal(&ExtKofNBatchResponse{Cts: slotBlob(size, 1)})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, resp)
	}
	return out
}
