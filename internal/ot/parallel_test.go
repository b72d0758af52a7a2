package ot

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

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

// TestExpGMatchesExp checks the fixed-base window table against generic
// exponentiation across random and edge-case exponents.
func TestExpGMatchesExp(t *testing.T) {
	g := Group512Test()
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		new(big.Int).Sub(g.Q, big.NewInt(1)),
		new(big.Int).Set(g.Q),
		new(big.Int).Add(g.Q, g.Q), // beyond the table width: fallback path
	}
	for i := 0; i < 32; i++ {
		e, err := rand.Int(rand.Reader, g.Q)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	for _, e := range exps {
		want := g.Exp(g.G, e).(*big.Int)
		if got := g.ExpG(e).(*big.Int); got.Cmp(want) != 0 {
			t.Fatalf("ExpG(%v) = %v, want %v", e, got, want)
		}
	}
}

// TestKofNParallelRoundTrip runs the batch transfer across worker counts,
// checking the recovered messages at each.
func TestKofNParallelRoundTrip(t *testing.T) {
	for _, group := range []Group{Group512Test(), X25519()} {
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
}

// TestKofNParallelDeterministic checks that every protocol message is
// bit-identical across GOMAXPROCS settings when the rng stream is fixed:
// every message is a function of the rng stream alone.
func TestKofNParallelDeterministic(t *testing.T) {
	for _, group := range []Group{Group512Test(), X25519()} {
		t.Run(group.Name(), func(t *testing.T) { testKofNDeterministic(t, group) })
	}
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
	group := Group512Test()
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
