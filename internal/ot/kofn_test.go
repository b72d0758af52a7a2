package ot

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/ec25519"
)

// kofnRun is one Naor–Pinkas k-of-n transfer: its receiver, the
// messages, the chosen indices and the sender's transfer.
type kofnRun struct {
	receiver *BatchReceiver
	msgs     [][]byte
	indices  []int
	tr       *BatchTransfer
}

// newKofNRun runs a k-of-n over n random w-byte messages up to the
// sender's transfer.
func newKofNRun(t *testing.T, k, n, w int, indices []int) kofnRun {
	t.Helper()
	g := X25519()
	msgs := make([][]byte, n)
	for j := range msgs {
		msgs[j] = make([]byte, w)
		if _, err := rand.Read(msgs[j]); err != nil {
			t.Fatal(err)
		}
	}
	sender, setup, err := NewBatchSender(g, msgs, k, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := NewBatchReceiver(g, n, w, indices, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return kofnRun{receiver: receiver, msgs: msgs, indices: indices, tr: tr}
}

// TestKofNPrivacyRandomShapes: over random k-of-n shapes with n ≤ 40 and
// random message widths, the transfer is the once-sent block of
// (k−1)·n·16 + n·w bytes and Recover returns exactly the chosen messages.
func TestKofNPrivacyRandomShapes(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(53, 1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(39)
		k := 1 + rng.IntN(n)
		w := []int{1, 16, 17, 32, 66}[rng.IntN(5)]
		name := fmt.Sprintf("%d-of-%d w=%d", k, n, w)
		run := newKofNRun(t, k, n, w, rng.Perm(n)[:k])
		if want := (k-1)*n*treeKeyLen + n*w; len(run.tr.Cts) != want {
			t.Fatalf("%s: %d ciphertext bytes, want (k−1)·n·16 + n·w = %d", name, len(run.tr.Cts), want)
		}
		got, err := run.receiver.Recover(run.tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, idx := range run.indices {
			if !bytes.Equal(got[i], run.msgs[idx]) {
				t.Fatalf("%s: instance %d did not recover message %d", name, i, idx)
			}
		}
	}
}

// TestKofNPrivacySlotKeys: the receiver's slot keys open no message but
// the ones they were chosen for. Each instance's key is tried as a
// message key K_m on every message, as instance 0's keys are, and as the
// pad seed of every key ciphertext, under the slot's own tweak, with the
// key that falls out tried on that slot's message: only instance 0's key
// on σ_0 and instance i ≥ 1's on its own slot (i−1)·n + σ_i yield a
// message, σ_i's. So a receiver holding every chosen slot key opens
// exactly its k messages.
func TestKofNPrivacySlotKeys(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(53, 2))
	for _, shape := range []struct{ k, n int }{{3, 6}, {9, 18}, {2, 11}, {1, 2}} {
		k, n := shape.k, shape.n
		const w = 32
		run := newKofNRun(t, k, n, w, rng.Perm(n)[:k])
		keys, err := run.receiver.recover(run.tr.R)
		if err != nil {
			t.Fatal(err)
		}
		treeBytes := (k - 1) * n * treeKeyLen
		s := mmoPool.Get().(*mmoScratch)
		opens := func(key *[treeKeyLen]byte, m int) bool {
			got := make([]byte, w)
			s.xorPad(got, run.tr.Cts[treeBytes+m*w:treeBytes+(m+1)*w], key, m, padDomainMsg)
			return bytes.Equal(got, run.msgs[m])
		}
		opened := 0
		for i, sigma := range run.indices {
			seed := (*[treeKeyLen]byte)(keys[i*treeKeyLen:])
			for m := 0; m < n; m++ {
				if got := opens(seed, m); got {
					opened++
					if i != 0 || m != sigma {
						t.Fatalf("%d-of-%d: instance %d (chose %d) opened message %d as its key", k, n, i, sigma, m)
					}
				}
			}
			for slot := 0; slot < (k-1)*n; slot++ {
				m := slot % n
				var msgKey [treeKeyLen]byte
				s.xorPad(msgKey[:], run.tr.Cts[slot*treeKeyLen:(slot+1)*treeKeyLen], seed, m, padDomainTree)
				if got := opens(&msgKey, m); got {
					opened++
					if slot != (i-1)*n+sigma {
						t.Fatalf("%d-of-%d: instance %d (chose %d) on slot %d opened message %d", k, n, i, sigma, slot, m)
					}
				}
			}
		}
		mmoPool.Put(s)
		if opened != k {
			t.Fatalf("%d-of-%d: the chosen slot keys opened %d messages, want %d", k, n, opened, k)
		}
	}
}

// TestKofNPrivacyBlobLength: Recover accepts exactly (k−1)·n·16 + n·w
// ciphertext bytes and refuses every other length with ErrBadMessage
// before anything is sized by it, and BaseFinish refuses every non-empty
// blob with ErrIKNP: refusing a 1 MiB blob makes no allocation but its
// error's.
func TestKofNPrivacyBlobLength(t *testing.T) {
	const k, n, w = 3, 6, 32
	run := newKofNRun(t, k, n, w, []int{4, 0, 3})
	honest := len(run.tr.Cts)
	padded := append(append([]byte(nil), run.tr.Cts...), make([]byte, 2*n*w)...)
	for size := 0; size <= len(padded); size++ {
		got, err := run.receiver.Recover(&BatchTransfer{R: run.tr.R, Cts: padded[:size]})
		switch {
		case size != honest && !errors.Is(err, ErrBadMessage):
			t.Fatalf("%d-byte blob: err = %v, want ErrBadMessage", size, err)
		case size == honest && err != nil:
			t.Fatalf("honest blob refused: %v", err)
		case size == honest:
			for i, idx := range run.indices {
				if !bytes.Equal(got[i], run.msgs[idx]) {
					t.Fatalf("honest blob: instance %d did not recover message %d", i, idx)
				}
			}
		}
	}

	g := X25519()
	recv, setup, err := NewIKNPReceiverBase(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	send, choice, err := NewIKNPSenderBase(g, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := recv.BaseRespond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, treeKeyLen, 2 * iknpKappa * treeKeyLen} {
		if err := send.BaseFinish(&BatchTransfer{R: tr.R, Cts: make([]byte, size)}); !errors.Is(err, ErrIKNP) {
			t.Fatalf("base transfer with %d ciphertext bytes: err = %v, want ErrIKNP", size, err)
		}
	}

	checkRefusalAllocs(t, "Recover", 6, func(cts []byte) bool {
		_, err := run.receiver.Recover(&BatchTransfer{R: run.tr.R, Cts: cts})
		return err != nil
	})
	checkRefusalAllocs(t, "BaseFinish", 3, func(cts []byte) bool {
		return send.BaseFinish(&BatchTransfer{R: tr.R, Cts: cts}) != nil
	})
	if err := send.BaseFinish(tr); err != nil {
		t.Fatalf("honest base transfer after the refusals: %v", err)
	}
}

// checkRefusalAllocs wants refused to refuse a 1 MiB + 1 blob with at
// most maxAllocs allocations, its error's own, counted by AllocsPerRun on
// the call alone: a refusal that sized anything by the blob would make
// one more. The count is not checked under -race, whose runtime adds
// allocations of its own.
func checkRefusalAllocs(t *testing.T, name string, maxAllocs float64, refused func(cts []byte) bool) {
	t.Helper()
	cts := make([]byte, 1<<20+1)
	if !refused(cts) {
		t.Fatalf("%s accepted a 1 MiB + 1 blob", name)
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(10, func() { refused(cts) }); got > maxAllocs {
		t.Fatalf("%s: refusing a 1 MiB + 1 blob made %.0f allocations, want at most %.0f", name, got, maxAllocs)
	}
}

// torsion returns the decoded small-order point with the given encoding.
func torsion(t *testing.T, h string) *ec25519.Point {
	t.Helper()
	enc, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	var p ec25519.Point
	if err := p.Decode(enc); err != nil {
		t.Fatal(err)
	}
	return &p
}

// withTorsion returns blob with the small-order point T added to every
// 32-byte element, each re-encoded.
func withTorsion(t *testing.T, blob []byte, tp *ec25519.Point) []byte {
	t.Helper()
	out := make([]byte, 0, len(blob))
	for i := 0; i < len(blob)/ec25519.PointLen; i++ {
		var p ec25519.Point
		if err := p.Decode(element(blob, i)); err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Add(&p, tp).Bytes()...)
	}
	if bytes.Equal(out, blob) {
		t.Fatal("adding torsion left the blob as it was")
	}
	return out
}

// TestTorsionAddsNothingToKeys: every key is taken at the cofactor-cleared
// point, so a torsion component added to each constraint C_j, each PK_0
// and R, every one re-encoded, leaves both sides' keys as in the honest
// run on the same rng stream — for a 3-of-6 and for the base phase's
// κ-of-2 shape — and a k-of-n transfer's ciphertexts and recovered
// messages unchanged.
func TestTorsionAddsNothingToKeys(t *testing.T) {
	g := X25519()
	t8 := torsion(t, "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a") // order 8
	t4 := torsion(t, "0000000000000000000000000000000000000000000000000000000000000000") // order 4
	t2 := torsion(t, "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f") // order 2
	type keys struct{ sender, receiver []byte }
	run := func(n int, sigmas []int, tamper bool) keys {
		t.Helper()
		rng := newDetReader(fmt.Sprintf("torsion-%d-%d", n, len(sigmas)))
		sender, setup, err := newBatchSender(g, n, len(sigmas), rng)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			setup = &BatchSetup{Cs: withTorsion(t, setup.Cs, t8)}
		}
		receiver, choice, err := newBatchReceiver(g, n, sigmas, setup, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			choice = &BatchChoice{PK0s: withTorsion(t, choice.PK0s, t4)}
		}
		bigR, sk, err := sender.respond(choice.PK0s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			bigR = withTorsion(t, bigR, t2)
		}
		rk, err := receiver.recover(bigR)
		if err != nil {
			t.Fatal(err)
		}
		for i, sigma := range sigmas {
			slot := i*n + sigma
			if !bytes.Equal(rk[i*treeKeyLen:(i+1)*treeKeyLen], sk[slot*treeKeyLen:(slot+1)*treeKeyLen]) {
				t.Fatalf("n=%d tamper=%v: instance %d's key is not the sender's slot %d key", n, tamper, i, slot)
			}
		}
		return keys{sk, rk}
	}
	base := make([]int, iknpKappa)
	for i := range base {
		base[i] = i % 3 % 2
	}
	for _, shape := range []struct {
		n      int
		sigmas []int
	}{{6, []int{5, 0, 2}}, {2, base}} {
		honest, tampered := run(shape.n, shape.sigmas, false), run(shape.n, shape.sigmas, true)
		if !bytes.Equal(honest.sender, tampered.sender) || !bytes.Equal(honest.receiver, tampered.receiver) {
			t.Errorf("%d-of-%d: torsion in C_j, PK_0 and R moved the keys", len(shape.sigmas), shape.n)
		}
	}

	// Through the public k-of-n: the same transfer bytes and messages.
	transfer := func(tamper bool) *BatchTransfer {
		rng := newDetReader("torsion-kofn")
		msgs := make([][]byte, 6)
		for j := range msgs {
			msgs[j] = bytes.Repeat([]byte{byte(j + 1)}, 32)
		}
		sender, setup, err := NewBatchSender(g, msgs, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			setup.Cs = withTorsion(t, setup.Cs, t8)
		}
		receiver, choice, err := NewBatchReceiver(g, 6, 32, []int{1, 4, 5}, setup, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			choice.PK0s = withTorsion(t, choice.PK0s, t4)
		}
		tr, err := sender.Respond(choice, rng)
		if err != nil {
			t.Fatal(err)
		}
		recvTr := tr
		if tamper {
			recvTr = &BatchTransfer{R: withTorsion(t, tr.R, t2), Cts: tr.Cts}
		}
		got, err := receiver.Recover(recvTr)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range []int{1, 4, 5} {
			if !bytes.Equal(got[i], msgs[idx]) {
				t.Fatalf("tamper=%v: instance %d did not recover message %d", tamper, i, idx)
			}
		}
		return tr
	}
	if !bytes.Equal(transfer(false).Cts, transfer(true).Cts) {
		t.Error("torsion in C_j and PK_0 moved the 3-of-6 ciphertexts")
	}
}
