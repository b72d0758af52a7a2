package ot

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/parallel/paralleltest"
)

// detReader is a deterministic byte stream (SHA-256 in counter mode) so two
// protocol runs can consume identical randomness.
type detReader struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDetReader(seed string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(seed))}
}

func (d *detReader) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		h := sha256.New()
		h.Write(d.seed[:])
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], d.counter)
		d.counter++
		h.Write(c[:])
		d.buf = h.Sum(d.buf)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// TestExpGMatchesExp checks the fixed-base table behind ExpG against the
// ladder Exp runs on the basepoint, across random and edge-case scalars,
// those at and beyond the group order among them.
func TestExpGMatchesExp(t *testing.T) {
	g := X25519()
	l := ec25519.Order()
	base := ec25519.Basepoint()
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		new(big.Int).Sub(l, big.NewInt(1)),
		new(big.Int).Set(l),
		new(big.Int).Add(l, l),
	}
	for i := 0; i < 32; i++ {
		e, err := rand.Int(rand.Reader, l)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	for _, e := range exps {
		if !g.ExpG(e).Equal(g.Exp(&base, e)) {
			t.Fatalf("ExpG(%v) differs from Exp(B, %v)", e, e)
		}
	}
}

// TestKofNParallelRoundTrip runs the batch transfer across worker counts,
// checking the recovered messages at each.
func TestKofNParallelRoundTrip(t *testing.T) {
	group := X25519()
	t.Run(group.Name(), func(t *testing.T) {
		msgs := make([][]byte, 8)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("message-%02d", i))
		}
		indices := []int{6, 0, 3}
		for _, procs := range []int{1, 2, 4, 8} {
			paralleltest.SetProcs(t, procs)
			got, err := TransferKofN(group, msgs, indices, rand.Reader)
			if err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			for j, idx := range indices {
				if !bytes.Equal(got[j], msgs[idx]) {
					t.Fatalf("procs=%d: recovered[%d] = %q, want %q", procs, j, got[j], msgs[idx])
				}
			}
		}
	})
}

// TestKofNParallelDeterministic checks that every protocol message is
// bit-identical across GOMAXPROCS settings when the rng stream is fixed:
// every message is a function of the rng stream alone.
func TestKofNParallelDeterministic(t *testing.T) {
	group := X25519()
	t.Run(group.Name(), func(t *testing.T) { testKofNDeterministic(t, group) })
}

func testKofNDeterministic(t *testing.T, group Group) {
	msgs := make([][]byte, 6)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("payload-%02d", i))
	}
	indices := []int{4, 1}

	// runOnce returns the three messages' encodings.
	runOnce := func(procs int) [][]byte {
		paralleltest.SetProcs(t, procs)
		rng := newDetReader("kofn-determinism")
		sender, setup, err := NewBatchSender(group, msgs, len(indices), rng)
		if err != nil {
			t.Fatalf("procs=%d sender: %v", procs, err)
		}
		receiver, choice, err := NewBatchReceiver(group, len(msgs), indices, setup, rng)
		if err != nil {
			t.Fatalf("procs=%d receiver: %v", procs, err)
		}
		tr, err := sender.Respond(choice, rng)
		if err != nil {
			t.Fatalf("procs=%d respond: %v", procs, err)
		}
		out, err := receiver.Recover(tr)
		if err != nil {
			t.Fatalf("procs=%d recover: %v", procs, err)
		}
		for j, idx := range indices {
			if !bytes.Equal(out[j], msgs[idx]) {
				t.Fatalf("procs=%d: wrong message %d", procs, j)
			}
		}
		return [][]byte{reencode(t, setup), reencode(t, choice), reencode(t, tr)}
	}

	base := runOnce(1)
	for _, procs := range []int{2, 4} {
		for i, got := range runOnce(procs) {
			if !bytes.Equal(got, base[i]) {
				t.Fatalf("procs=%d: message %d (setup, choice, transfer) differs", procs, i)
			}
		}
	}
}

// TestBatchRespondBadChoiceParallel checks that a malformed instance inside
// a batched choice fails cleanly (no hang, no partial success) with
// several workers available.
func TestBatchRespondBadChoiceParallel(t *testing.T) {
	group := X25519()
	msgs := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc"), []byte("dd")}
	indices := []int{0, 2}
	paralleltest.SetProcs(t, 4)
	sender, setup, err := NewBatchSender(group, msgs, len(indices), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, choice, err := NewBatchReceiver(group, len(msgs), indices, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	choice.PK0s[1] = new(big.Int) // zero is invalid
	if _, err := sender.Respond(choice, rand.Reader); err == nil {
		t.Fatal("want error for invalid PK0 in batch")
	}
}
