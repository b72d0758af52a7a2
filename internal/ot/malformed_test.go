package ot_test

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/field/limb"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/parallel/paralleltest"
	"repro/internal/wire"
)

// encodingOfLE returns the 32-byte encoding of a little-endian y and a
// sign bit, whether or not it names a curve point.
func encodingOfLE(y *big.Int, sign byte) []byte {
	be := y.FillBytes(make([]byte, ec25519.PointLen))
	enc := make([]byte, ec25519.PointLen)
	for i := range enc {
		enc[i] = be[ec25519.PointLen-1-i]
	}
	enc[ec25519.PointLen-1] |= sign << 7
	return enc
}

// withElement returns a copy of blob with its j-th 32-byte element
// replaced by x, which may be of another length.
func withElement(blob []byte, j int, x []byte) []byte {
	out := append([]byte(nil), blob[:j*ec25519.PointLen]...)
	out = append(out, x...)
	return append(out, blob[(j+1)*ec25519.PointLen:]...)
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

// malformedElements lists byte strings that are not the encoding of a
// group element: elements of the wrong length, bad encodings, and the
// small-order points, which are curve points outside the group.
func malformedElements(t *testing.T) map[string][]byte {
	t.Helper()
	bad := map[string][]byte{}
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
		bad["small order/"+name] = enc
	}
	var offCurve []byte
	for y := int64(2); y < 40 && offCurve == nil; y++ {
		enc := encodingOfLE(big.NewInt(y), 0)
		if new(ec25519.Point).Decode(enc) != nil {
			offCurve = enc
		}
	}
	if offCurve == nil {
		t.Fatal("no off-curve y below 40")
	}
	bad["off-curve y"] = offCurve
	bad["y = p"] = encodingOfLE(limb.Modulus(), 0)
	bad["y = p+1"] = encodingOfLE(new(big.Int).Add(limb.Modulus(), big.NewInt(1)), 0)
	bad["negative zero"] = encodingOfLE(big.NewInt(1), 1)
	gen := ec25519.Basepoint()
	bad["over-long"] = append([]byte{0}, gen.Bytes()...) // 33 bytes, a leading zero
	bad["nil"] = nil
	return bad
}

// TestMalformedElementsRejected feeds every malformed element in every
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
	bReceiver, bChoice, err := ot.NewBatchReceiver(g, n, 16, indices, bSetup, rand.Reader)
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
			_, err := o.sender.Respond(&ot.BatchChoice{PK0s: x}, rand.Reader)
			want("Respond(PK0)", err)
			_, err = o.receiver.Recover(&ot.BatchTransfer{R: x, Cts: o.tr.Cts})
			want("Recover(R)", err)
			for j := 0; j < n-1; j++ { // j = sigma−1 is the constraint the receiver uses
				cs := withElement(o.setup.Cs, j, x)
				_, _, err = ot.NewBatchReceiver(g, n, 16, []int{sigma}, &ot.BatchSetup{Cs: cs}, rand.Reader)
				want("NewReceiver(C_j)", err)
			}

			// The same positions in the k-of-n: the last instance's PK_0,
			// the one R the k instances share, and each C_j of their one
			// setup.
			last := len(indices) - 1
			pk0s := withElement(bChoice.PK0s, last, x)
			_, err = bSender.Respond(&ot.BatchChoice{PK0s: pk0s}, rand.Reader)
			want("batch Respond(PK0)", err)
			_, err = bReceiver.Recover(&ot.BatchTransfer{R: x, Cts: bTr.Cts})
			want("batch Recover(R)", err)
			for j := 0; j < n-1; j++ {
				cs := withElement(bSetup.Cs, j, x)
				_, _, err = ot.NewBatchReceiver(g, n, 16, indices, &ot.BatchSetup{Cs: cs}, rand.Reader)
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

// TestFixedWidthRefusedFirst: a batch message with one element
// re-encoded as 33 bytes (a leading zero before its 32), or a ciphertext
// blob that is not the (k−1)·n·16 + n·w bytes of the once-sent block for
// messages of w bytes — the k·n slots of w bytes a transfer carried
// before each message was sent once among them — crosses the codec
// — the blobs are plain byte slices — and is refused with ErrBadMessage
// by the step that receives it, before that step draws randomness or does
// any group arithmetic. Each element has one accepted encoding.
func TestFixedWidthRefusedFirst(t *testing.T) {
	g := ot.X25519()
	const n = 6
	indices := []int{4, 0, 3}
	msgs := randomMessages(t, n, 32)
	sender, setup, err := ot.NewBatchSender(g, msgs, len(indices), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := ot.NewBatchReceiver(g, n, 32, indices, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	widen := func(blob []byte, j int) []byte {
		return withElement(blob, j, append([]byte{0}, blob[j*ec25519.PointLen:(j+1)*ec25519.PointLen]...))
	}
	// viaWire hands a message to the peer as its frame payload would.
	viaWire := func(in, out wire.Msg) {
		t.Helper()
		data, err := wire.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Unmarshal(data, out); err != nil {
			t.Fatalf("%T does not decode: %v", in, err)
		}
	}
	steps := map[string]func(rng io.Reader) error{}
	for j := 0; j < n-1; j++ {
		steps[fmt.Sprintf("setup C_%d", j+1)] = func(rng io.Reader) error {
			var got ot.BatchSetup
			viaWire(&ot.BatchSetup{Cs: widen(setup.Cs, j)}, &got)
			_, _, err := ot.NewBatchReceiver(g, n, 32, indices, &got, rng)
			return err
		}
	}
	for i := range indices {
		steps[fmt.Sprintf("choice PK0_%d", i)] = func(rng io.Reader) error {
			var got ot.BatchChoice
			viaWire(&ot.BatchChoice{PK0s: widen(choice.PK0s, i)}, &got)
			_, err := sender.Respond(&got, rng)
			return err
		}
	}
	recoverFrom := func(r, cts []byte) func(io.Reader) error {
		return func(io.Reader) error {
			var got ot.BatchTransfer
			viaWire(&ot.BatchTransfer{R: r, Cts: cts}, &got)
			_, err := receiver.Recover(&got)
			return err
		}
	}
	slots := len(indices) * n
	keyBytes := (len(indices) - 1) * n * 16
	steps["transfer R"] = recoverFrom(widen(tr.R, 0), tr.Cts)
	steps["ciphertexts one byte short"] = recoverFrom(tr.R, tr.Cts[:len(tr.Cts)-1])
	steps["ciphertexts one byte over"] = recoverFrom(tr.R, append(append([]byte(nil), tr.Cts...), 0))
	steps["one key ciphertext short"] = recoverFrom(tr.R, tr.Cts[16:])
	steps["one message short"] = recoverFrom(tr.R, tr.Cts[:len(tr.Cts)-32])
	steps["key ciphertexts only"] = recoverFrom(tr.R, tr.Cts[:keyBytes])
	steps["messages of 48 bytes"] = recoverFrom(tr.R, append(append([]byte(nil), tr.Cts...), tr.Cts[:n*16]...))
	steps["k·n slots of 32 bytes"] = recoverFrom(tr.R, make([]byte, slots*32))
	for name, step := range steps {
		reg := obs.NewRegistry()
		prev := obs.SwapDefault(reg)
		rng := &countingReader{r: rand.Reader}
		err := step(rng)
		obs.SwapDefault(prev)
		if !errors.Is(err, ot.ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
		if rng.n != 0 {
			t.Errorf("%s: refused after drawing %d random bytes", name, rng.n)
		}
		if exps := reg.Counter(obs.CtrGroupExp); exps != 0 {
			t.Errorf("%s: refused after %d group exponentiations", name, exps)
		}
	}
	got, err := receiver.Recover(tr)
	if err != nil {
		t.Fatalf("honest transfer after the refusals: %v", err)
	}
	for i, idx := range indices {
		if !bytes.Equal(got[i], msgs[idx]) {
			t.Fatalf("honest transfer after the refusals: message %d wrong", i)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestMalformedIKNPBaseRejected feeds the extension sender base messages
// of the wrong shape — including the layouts of peers from before the κ
// base transfers became one batch (κ one-constraint setups) and from
// before the seeds became the batch's slot keys (a transfer carrying 2κ
// seed ciphertexts), and the messages of a similarity k-of-n, which share
// the base phase's types and frame tags — and malformed elements in the
// shared R. It wants ErrIKNP for every wrong shape, any non-empty
// ciphertext blob among them, and ErrIKNP or ErrBadMessage for a bad
// element, never a panic; the honest transfer still completes after the
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
		c := setup.Cs
		legacy := make([]*ot.BatchSetup, 128)
		for i := range legacy {
			legacy[i] = &ot.BatchSetup{Cs: c}
		}
		// A similarity 9-of-18: its setup carries 17 constraints, and
		// its transfer 9·18 ciphertexts of the messages' length.
		kofnMsgs := randomMessages(t, 18, 40)
		kofnSender, kofnSetup, err := ot.NewBatchSender(g, kofnMsgs, 9, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		_, kofnChoice, err := ot.NewBatchReceiver(g, 18, 40, []int{17, 0, 3, 8, 5, 12, 9, 14, 1}, kofnSetup, rand.Reader)
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
			"2 constraints":   {Cs: bytes.Repeat(c, 2)},
			"128 constraints": {Cs: bytes.Repeat(c, 128)},
			"31-byte element": {Cs: c[1:]},
			"33-byte element": {Cs: append([]byte{0}, c...)},
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
		// The refused choices come before the honest one, which ends the
		// receiver's base phase.
		for name, c := range map[string]*ot.BatchChoice{
			"9-of-18 choice":  kofnChoice,
			"33-byte element": {PK0s: withElement(choice.PK0s, 5, append([]byte{0}, choice.PK0s[5*32:6*32]...))},
			"κ−1 elements":    {PK0s: choice.PK0s[32:]},
		} {
			if _, err := recv.BaseRespond(c, rand.Reader); !errors.Is(err, ot.ErrIKNP) {
				t.Errorf("BaseRespond(%s): err = %v, want ErrIKNP", name, err)
			}
		}
		tr, err := recv.BaseRespond(choice, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Cts) != 0 {
			t.Fatalf("base transfer carries %d ciphertext bytes, want none", len(tr.Cts))
		}
		withCts := func(cts []byte) *ot.BatchTransfer {
			return &ot.BatchTransfer{R: tr.R, Cts: cts}
		}
		// The 2κ 16-byte seed ciphertexts a base transfer carried before
		// the seeds became the batch's slot keys.
		seedCts := make([]byte, 2*128*16)
		for name, btr := range map[string]*ot.BatchTransfer{
			"nil":                   nil,
			"one byte":              withCts([]byte{0}),
			"one 16-byte slot":      withCts(seedCts[:16]),
			"κ 16-byte slots":       withCts(seedCts[:128*16]),
			"2κ seed ciphertexts":   withCts(seedCts),
			"2κ seed ciphertexts−1": withCts(seedCts[:len(seedCts)-1]),
			"9-of-18 transfer":      kofnTr,
		} {
			wantShape("BaseFinish("+name+")", send.BaseFinish(btr))
		}
		want("BaseFinish(empty transfer)", send.BaseFinish(&ot.BatchTransfer{}))
		for name, x := range bad {
			want("BaseFinish(R "+name+")", send.BaseFinish(&ot.BatchTransfer{R: x}))
		}
		if err := send.BaseFinish(tr); err != nil {
			t.Fatalf("honest base transfer after the rejections: %v", err)
		}
	})
}

// TestMalformedExtKofNResponseRejected feeds the extended k-of-n receiver
// (k = 2, n = 6, 8-byte messages) response blobs whose length is not
// B·((k−1)·n·16 + n·w) for any message width w: a batch of one answered with
// 24 bytes, and batches of four answered with one byte more than the
// honest blob or one tree ciphertext less. Each must be refused with
// ErrIKNP before the length sizes anything — never a panic, which would
// fire inside a worker goroutine and take the whole process down. After
// each refusal an honest batch on the same session still completes.
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
	four := [][]int{{1, 4}, {0, 5}, {2, 3}, {5, 1}}
	for _, tc := range []struct {
		name    string
		indices [][]int
		tamper  func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse
	}{
		{"batch of one, 24 B", [][]int{{1, 4}}, func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse {
			return &ot.ExtKofNBatchResponse{Cts: resp.Cts[:24]}
		}},
		{"B=4, one byte long", four, func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse {
			return &ot.ExtKofNBatchResponse{Cts: append(append([]byte(nil), resp.Cts...), 0)}
		}},
		{"B=4, one tree ciphertext short", four, func(resp *ot.ExtKofNBatchResponse) *ot.ExtKofNBatchResponse {
			return &ot.ExtKofNBatchResponse{Cts: resp.Cts[:len(resp.Cts)-16]}
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
