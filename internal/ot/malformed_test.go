package ot_test

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/field/limb"
	"repro/internal/ot"
	"repro/internal/parallel/paralleltest"
	"repro/internal/wire"
)

// wireOfLE returns the wire integer of a compressed point given as a
// little-endian y and a sign bit: the big-endian reading of the 32 bytes.
func wireOfLE(y *big.Int, sign byte) *big.Int {
	be := y.FillBytes(make([]byte, ec25519.PointLen))
	enc := make([]byte, ec25519.PointLen)
	for i := range enc {
		enc[i] = be[ec25519.PointLen-1-i]
	}
	enc[ec25519.PointLen-1] |= sign << 7
	return new(big.Int).SetBytes(enc)
}

// smallOrder lists the compressed encodings of the eight points of order
// dividing 8: every one is a canonical curve point, and none is in the
// prime-order subgroup but the identity.
var smallOrder = map[string]string{
	"identity":        "0100000000000000000000000000000000000000000000000000000000000000",
	"order 2":         "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"order 4, x even": "0000000000000000000000000000000000000000000000000000000000000000",
	"order 4, x odd":  "0000000000000000000000000000000000000000000000000000000000000080",
	"order 8 (a)":     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
	"order 8 (b)":     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
	"order 8 (c)":     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	"order 8 (d)":     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
}

// malformedElements lists integers that are not the canonical encoding of
// a group element: bad encodings, and the small-order points, which are
// curve points outside the group.
func malformedElements(t *testing.T) map[string]*big.Int {
	t.Helper()
	bad := map[string]*big.Int{}
	for name, h := range smallOrder {
		enc, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		var p, cleared ec25519.Point
		if err := p.Decode(enc); err != nil {
			t.Fatalf("%s: not a curve point: %v", name, err)
		}
		if !cleared.MulByCofactor(&p).IsIdentity() {
			t.Fatalf("%s: [8]·P is not the identity", name)
		}
		bad["small order/"+name] = new(big.Int).SetBytes(enc)
	}
	var offCurve *big.Int
	for y := int64(2); y < 40 && offCurve == nil; y++ {
		enc := wireOfLE(big.NewInt(y), 0).FillBytes(make([]byte, ec25519.PointLen))
		if new(ec25519.Point).Decode(enc) != nil {
			offCurve = wireOfLE(big.NewInt(y), 0)
		}
	}
	if offCurve == nil {
		t.Fatal("no off-curve y below 40")
	}
	bad["off-curve y"] = offCurve
	bad["y = p"] = wireOfLE(limb.Modulus(), 0)
	bad["y = p+1"] = wireOfLE(new(big.Int).Add(limb.Modulus(), big.NewInt(1)), 0)
	bad["negative zero"] = wireOfLE(big.NewInt(1), 1)
	bad["over-long"] = new(big.Int).Lsh(big.NewInt(1), 260)
	bad["negative"] = big.NewInt(-1)
	bad["nil"] = nil
	return bad
}

// TestMalformedElementsRejected feeds every malformed integer in every
// position a peer controls — PK0, R, and a constraint C_j both at and away
// from the chosen index — through a 1-of-n and a k-of-n, and wants
// ErrBadMessage every time: there is no arithmetic on an element that did
// not decode, and no panic.
func TestMalformedElementsRejected(t *testing.T) {
	bad := malformedElements(t)
	const n, sigma = 4, 2
	g := ot.X25519()
	msgs := randomMessages(t, n, 16)
	o := newOneOfN(t, g, msgs, sigma)
	indices := []int{sigma, 0, 3}
	bSender, bSetup, err := ot.NewBatchSender(g, msgs, len(indices), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bReceiver, bChoice, err := ot.NewBatchReceiver(g, n, indices, bSetup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bTr, err := bSender.Respond(bChoice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	for name, x := range bad {
		t.Run(g.Name()+"/"+name, func(t *testing.T) {
			want := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ot.ErrBadMessage) {
					t.Errorf("%s: err = %v, want ErrBadMessage", what, err)
				}
			}
			_, err := o.sender.Respond(&ot.BatchChoice{PK0s: []*big.Int{x}}, rand.Reader)
			want("Respond(PK0)", err)
			_, err = o.receiver.Recover(&ot.BatchTransfer{R: x, Cts: o.tr.Cts})
			want("Recover(R)", err)
			for j := 0; j < n-1; j++ { // j = sigma−1 is the constraint the receiver uses
				cs := append([]*big.Int(nil), o.setup.Cs...)
				cs[j] = x
				_, _, err = ot.NewBatchReceiver(g, n, []int{sigma}, &ot.BatchSetup{Cs: cs}, rand.Reader)
				want("NewReceiver(C_j)", err)
			}

			// The same positions in the k-of-n: the last instance's PK_0,
			// the one R the k instances share, and each C_j of their one
			// setup.
			last := len(indices) - 1
			pk0s := append([]*big.Int(nil), bChoice.PK0s...)
			pk0s[last] = x
			_, err = bSender.Respond(&ot.BatchChoice{PK0s: pk0s}, rand.Reader)
			want("batch Respond(PK0)", err)
			_, err = bReceiver.Recover(&ot.BatchTransfer{R: x, Cts: bTr.Cts})
			want("batch Recover(R)", err)
			for j := 0; j < n-1; j++ {
				cs := append([]*big.Int(nil), bSetup.Cs...)
				cs[j] = x
				_, _, err = ot.NewBatchReceiver(g, n, indices, &ot.BatchSetup{Cs: cs}, rand.Reader)
				want("batch NewReceiver(C_j)", err)
			}
		})
	}

	// The untampered messages still go through afterwards: a rejected
	// message leaves the endpoints usable.
	got, err := o.receiver.Recover(o.tr)
	if err != nil || string(got[0]) != string(msgs[sigma]) {
		t.Fatalf("honest transfer after the rejections: %q, %v", got, err)
	}
}

// TestMalformedIKNPBaseRejected feeds the extension sender base messages
// of the wrong shape — including the layout of a peer from before the κ
// base transfers became one batch, κ one-constraint setups, and the
// messages of a similarity k-of-n, which share the base phase's types and
// frame tags — and malformed elements in the shared R. It wants ErrIKNP
// for every wrong shape and ErrIKNP or ErrBadMessage for a bad element,
// never a panic; the honest transfer still completes after the
// rejections.
func TestMalformedIKNPBaseRejected(t *testing.T) {
	bad := malformedElements(t)
	g := ot.X25519()
	t.Run(g.Name(), func(t *testing.T) {
		recv, setup, err := ot.NewIKNPReceiverBase(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ot.ErrIKNP) && !errors.Is(err, ot.ErrBadMessage) {
				t.Errorf("%s: err = %v, want ErrIKNP or ErrBadMessage", what, err)
			}
		}
		wantShape := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ot.ErrIKNP) {
				t.Errorf("%s: err = %v, want ErrIKNP", what, err)
			}
		}
		c := setup.Cs[0]
		legacy := make([]*ot.BatchSetup, 128)
		for i := range legacy {
			legacy[i] = &ot.BatchSetup{Cs: []*big.Int{c}}
		}
		many := make([]*big.Int, 128)
		for i := range many {
			many[i] = c
		}
		// A similarity 9-of-18: its setup carries 17 constraints, and
		// its transfer 9·18 ciphertexts of the messages' length.
		kofnMsgs := randomMessages(t, 18, 40)
		kofnSender, kofnSetup, err := ot.NewBatchSender(g, kofnMsgs, 9, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		_, kofnChoice, err := ot.NewBatchReceiver(g, 18, []int{17, 0, 3, 8, 5, 12, 9, 14, 1}, kofnSetup, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		kofnTr, err := kofnSender.Respond(kofnChoice, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*ot.BatchSetup{
			"nil":             nil,
			"0 constraints":   {},
			"2 constraints":   {Cs: []*big.Int{c, c}},
			"128 constraints": {Cs: many},
			"9-of-18 setup":   kofnSetup,
		} {
			_, _, err := ot.NewIKNPSenderBase(g, s, rand.Reader)
			wantShape("NewIKNPSenderBase("+name+")", err)
		}
		// The pre-batch wire layout either fails to decode as a base
		// setup or decodes to one the sender refuses.
		old := ot.LegacySeq(legacy)
		var decoded ot.BatchSetup
		if err := wire.Unmarshal(old, &decoded); err == nil {
			_, _, err = ot.NewIKNPSenderBase(g, &decoded, rand.Reader)
			wantShape("NewIKNPSenderBase(pre-batch layout)", err)
		}

		send, choice, err := ot.NewIKNPSenderBase(g, setup, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := recv.BaseRespond(choice, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recv.BaseRespond(kofnChoice, rand.Reader); !errors.Is(err, ot.ErrIKNP) {
			t.Errorf("BaseRespond(9-of-18 choice): err = %v, want ErrIKNP", err)
		}
		cts := tr.Cts
		withCts := func(cts [][]byte) *ot.BatchTransfer {
			return &ot.BatchTransfer{R: tr.R, Cts: cts}
		}
		withCt := func(slot int, ct []byte) *ot.BatchTransfer {
			out := append([][]byte(nil), cts...)
			out[slot] = ct
			return withCts(out)
		}
		for name, btr := range map[string]*ot.BatchTransfer{
			"nil":                nil,
			"empty transfer":     {},
			"κ ciphertexts":      withCts(cts[:128]),
			"2κ−1 ciphertexts":   withCts(cts[:255]),
			"2κ+1 ciphertexts":   withCts(append(append([][]byte(nil), cts...), cts[0])),
			"15-byte ciphertext": withCt(7, cts[7][:15]),
			"17-byte ciphertext": withCt(200, append(append([]byte(nil), cts[200]...), 0)),
			"empty ciphertext":   withCt(0, nil),
			"9-of-18 transfer":   kofnTr,
		} {
			wantShape("BaseFinish("+name+")", send.BaseFinish(btr))
		}
		for name, x := range bad {
			want("BaseFinish(R "+name+")", send.BaseFinish(&ot.BatchTransfer{R: x, Cts: cts}))
		}
		if err := send.BaseFinish(tr); err != nil {
			t.Fatalf("honest base transfer after the rejections: %v", err)
		}
	})
}

// TestMalformedExtKofNResponseRejected feeds the extended k-of-n receiver
// responses whose declared message length wraps the length arithmetic
// once multiplied, so the wrapped product matches the blob actually sent:
// a batch of one (k = 2, n = 6) whose MsgLen wraps k·n·MsgLen onto a
// 24-byte ciphertext blob, and a batch of four whose extension MsgLen
// wraps m·MsgLen onto the honest ciphertext rows. Both must be refused
// with ErrIKNP before the length sizes anything — never a panic, which in
// the second case would fire inside a worker goroutine and take the whole
// process down. After each refusal an honest batch on the same session
// still completes.
func TestMalformedExtKofNResponseRejected(t *testing.T) {
	paralleltest.SetProcs(t, 4)
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const n, msgLen = 6, 8
	batch := func(t *testing.T, indices [][]int) (*ot.ExtKofNBatchQuery, *ot.ExtKofNBatchResponse, [][][]byte) {
		t.Helper()
		msgs := make([][][]byte, len(indices))
		for b := range msgs {
			msgs[b] = randomMessages(t, n, msgLen)
		}
		q, req, err := ot.NewExtKofNBatchQuery(receiver, n, indices)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ot.ExtKofNBatchRespond(sender, req, msgs, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return q, resp, msgs
	}
	for _, tc := range []struct {
		name    string
		indices [][]int
		tamper  func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse
	}{
		{"batch of one, MsgLen 2+2^62 over 24 B", [][]int{{1, 4}}, func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse {
			return &ot.ExtKofNBatchResponse{IKNP: resp.IKNP, Cts: resp.Cts[:24], MsgLen: 2 + 1<<62}
		}},
		{"B=4, extension MsgLen 16+2^61", [][]int{{1, 4}, {0, 5}, {2, 3}, {5, 1}}, func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse {
			iknp := *resp.IKNP
			iknp.MsgLen = 16 + 1<<61
			return &ot.ExtKofNBatchResponse{IKNP: &iknp, Cts: resp.Cts, MsgLen: resp.MsgLen}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, resp, _ := batch(t, tc.indices)
			if _, err := q.Recover(tc.tamper(resp)); !errors.Is(err, ot.ErrIKNP) {
				t.Fatalf("err = %v, want ErrIKNP", err)
			}
			indices := [][]int{{3, 0}}
			q, resp, msgs := batch(t, indices)
			got, err := q.Recover(resp)
			if err != nil {
				t.Fatalf("honest batch after the refusal: %v", err)
			}
			for i, idx := range indices[0] {
				if !bytes.Equal(got[0][i], msgs[0][idx]) {
					t.Fatalf("honest batch after the refusal: index %d wrong", idx)
				}
			}
		})
	}
}
