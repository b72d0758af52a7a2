package ot_test

// Snapshot/restore differential tests: a restored IKNP pair must be
// byte-for-byte indistinguishable from the original pair continuing the
// same session, and the batch counter must carry forward monotonically —
// the property that makes cross-session pad reuse impossible.

import (
	"bytes"
	"crypto/rand"
	"errors"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/ot"
)

// extBatch runs one extension batch with choices derived from seed and
// returns the receiver's wire message, the sender's two key blobs and the
// receiver's keys, after checking that the receiver holds exactly its
// chosen key of every pair.
func extBatch(t *testing.T, sender *ot.IKNPSender, receiver *ot.IKNPReceiver, seed uint64, m int) (*ot.IKNPReceiverMsg, [2][]byte, []byte) {
	t.Helper()
	rng := mrand.New(mrand.NewPCG(seed, seed^0xdead))
	choices := make([]int, m)
	for j := range choices {
		choices[j] = rng.IntN(2)
	}
	ext, recvMsg, err := receiver.Extend(choices)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, err := sender.Keys(recvMsg)
	if err != nil {
		t.Fatal(err)
	}
	got := ext.Keys()
	checkROTKeys(t, choices, k0, k1, got)
	return recvMsg, [2][]byte{k0, k1}, got
}

// checkROTKeys checks a batch of random OTs: transfer j's receiver key is
// the sender's key for choice j, and differs from the other one.
func checkROTKeys(t *testing.T, choices []int, k0, k1, got []byte) {
	t.Helper()
	const w = 16
	if len(k0) != len(choices)*w || len(k1) != len(choices)*w || len(got) != len(choices)*w {
		t.Fatalf("key blobs of %d, %d and %d bytes for %d transfers", len(k0), len(k1), len(got), len(choices))
	}
	for j, c := range choices {
		want, other := k0[j*w:(j+1)*w], k1[j*w:(j+1)*w]
		if c == 1 {
			want, other = other, want
		}
		if !bytes.Equal(got[j*w:(j+1)*w], want) {
			t.Fatalf("transfer %d: receiver key is not the chosen key", j)
		}
		if bytes.Equal(got[j*w:(j+1)*w], other) {
			t.Fatalf("transfer %d: receiver holds the other key", j)
		}
	}
}

// TestIKNPSnapshotRestoreDifferential: after one extension batch, both
// endpoints are snapshotted; the restored pair then runs the next batch
// on the same inputs as the original pair. Extension is deterministic
// given the base state and the batch counter, so every wire byte and
// derived key must match exactly — any divergence means the
// restore lost or reset part of the cryptographic position.
func TestIKNPSnapshotRestoreDifferential(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	extBatch(t, sender, receiver, 1, 64)

	sst, err := sender.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := receiver.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sst.Batch != rst.Batch {
		t.Fatalf("snapshot counters out of lockstep: sender %d, receiver %d", sst.Batch, rst.Batch)
	}
	if sst.Batch == 0 {
		t.Fatal("batch counter did not advance before snapshot")
	}

	restoredSender, err := ot.RestoreIKNPSender(sst)
	if err != nil {
		t.Fatal(err)
	}
	restoredReceiver, err := ot.RestoreIKNPReceiver(rst)
	if err != nil {
		t.Fatal(err)
	}
	if senderBatch(t, restoredSender) != sst.Batch || receiverBatch(t, restoredReceiver) != rst.Batch {
		t.Fatal("restore reset the batch counter")
	}

	// Same next-batch choices on both pairs: identical wire bytes and
	// keys.
	recvA, sendA, gotA := extBatch(t, sender, receiver, 2, 48)
	recvB, sendB, gotB := extBatch(t, restoredSender, restoredReceiver, 2, 48)
	if !bytes.Equal(recvA.U, recvB.U) || recvA.M != recvB.M {
		t.Fatal("restored receiver's extension message diverges from the original")
	}
	if !bytes.Equal(sendA[0], sendB[0]) || !bytes.Equal(sendA[1], sendB[1]) {
		t.Fatal("restored sender's keys diverge from the original")
	}
	if !bytes.Equal(gotA, gotB) {
		t.Fatal("restored receiver's keys diverge from the original")
	}
	if a, b := senderBatch(t, restoredSender), senderBatch(t, sender); a != b {
		t.Fatalf("counters diverged after the differential batch: %d vs %d", a, b)
	}
}

// senderBatch and receiverBatch read an endpoint's lockstep batch counter
// from its snapshot.
func senderBatch(t *testing.T, s *ot.IKNPSender) uint32 {
	t.Helper()
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st.Batch
}

func receiverBatch(t *testing.T, r *ot.IKNPReceiver) uint32 {
	t.Helper()
	st, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st.Batch
}

// TestIKNPResumeCounterMonotonic: a chain of snapshot/restore hops never
// repeats a batch counter value — each hop resumes strictly past
// everything the previous sessions consumed, so the (column, batch,
// counter) PRG domains never collide across the chain.
func TestIKNPResumeCounterMonotonic(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var last uint32
	for hop := 0; hop < 3; hop++ {
		extBatch(t, sender, receiver, uint64(10+hop), 16)
		sst, err := sender.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if hop > 0 && sst.Batch <= last {
			t.Fatalf("hop %d: counter %d did not advance past %d", hop, sst.Batch, last)
		}
		last = sst.Batch
		if sender, err = ot.RestoreIKNPSender(sst); err != nil {
			t.Fatal(err)
		}
		rst, err := receiver.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if receiver, err = ot.RestoreIKNPReceiver(rst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIKNPRestoreValidation: hostile or truncated states are rejected by
// shape, never partially accepted.
func TestIKNPRestoreValidation(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := sender.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := receiver.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func() error
	}{
		{"nil sender", func() error { _, err := ot.RestoreIKNPSender(nil); return err }},
		{"short s", func() error {
			bad := *sst
			bad.S = bad.S[:len(bad.S)-1]
			_, err := ot.RestoreIKNPSender(&bad)
			return err
		}},
		{"short sender seeds", func() error {
			bad := *sst
			bad.Seeds = bad.Seeds[:len(bad.Seeds)-1]
			_, err := ot.RestoreIKNPSender(&bad)
			return err
		}},
		{"nil receiver", func() error { _, err := ot.RestoreIKNPReceiver(nil); return err }},
		{"short seed0", func() error {
			bad := *rst
			bad.Seed0 = bad.Seed0[:16]
			_, err := ot.RestoreIKNPReceiver(&bad)
			return err
		}},
		{"short seed1", func() error {
			bad := *rst
			bad.Seed1 = nil
			_, err := ot.RestoreIKNPReceiver(&bad)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.mut(); !errors.Is(err, ot.ErrIKNPResume) {
			t.Errorf("%s: error = %v, want ErrIKNPResume", tc.name, err)
		}
	}
}
