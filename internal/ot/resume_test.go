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

// extBatch runs one extension batch with deterministic inputs derived
// from seed and returns the two wire messages plus the recovered
// transfers.
func extBatch(t *testing.T, sender *ot.IKNPSender, receiver *ot.IKNPReceiver, seed uint64, m int) (*ot.IKNPReceiverMsg, *ot.IKNPSenderMsg, [][]byte) {
	t.Helper()
	rng := mrand.New(mrand.NewPCG(seed, seed^0xdead))
	choices := make([]int, m)
	x0 := make([][]byte, m)
	x1 := make([][]byte, m)
	for j := 0; j < m; j++ {
		choices[j] = rng.IntN(2)
		x0[j] = make([]byte, 32)
		x1[j] = make([]byte, 32)
		for i := range x0[j] {
			x0[j][i] = byte(rng.Uint32())
			x1[j][i] = byte(rng.Uint32())
		}
	}
	ext, recvMsg, err := receiver.Extend(choices)
	if err != nil {
		t.Fatal(err)
	}
	sendMsg, err := sender.Respond(recvMsg, x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ext.Recover(sendMsg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m; j++ {
		want := x0[j]
		if choices[j] == 1 {
			want = x1[j]
		}
		if !bytes.Equal(got[j], want) {
			t.Fatalf("transfer %d: wrong message", j)
		}
	}
	return recvMsg, sendMsg, got
}

// TestIKNPSnapshotRestoreDifferential: after one extension batch, both
// endpoints are snapshotted; the restored pair then runs the next batch
// on the same inputs as the original pair. Extension is deterministic
// given the base state and the batch counter, so every wire byte and
// recovered transfer must match exactly — any divergence means the
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
	if restoredSender.Batch() != sst.Batch || restoredReceiver.Batch() != rst.Batch {
		t.Fatal("restore reset the batch counter")
	}

	// Same next-batch inputs on both pairs: identical wire bytes and
	// transfers.
	recvA, sendA, gotA := extBatch(t, sender, receiver, 2, 48)
	recvB, sendB, gotB := extBatch(t, restoredSender, restoredReceiver, 2, 48)
	if !bytes.Equal(recvA.U, recvB.U) || recvA.M != recvB.M {
		t.Fatal("restored receiver's extension message diverges from the original")
	}
	if !bytes.Equal(sendA.Y0, sendB.Y0) || !bytes.Equal(sendA.Y1, sendB.Y1) || sendA.MsgLen != sendB.MsgLen {
		t.Fatal("restored sender's response diverges from the original")
	}
	for j := range gotA {
		if !bytes.Equal(gotA[j], gotB[j]) {
			t.Fatalf("transfer %d diverges after restore", j)
		}
	}
	if restoredSender.Batch() != sender.Batch() {
		t.Fatalf("counters diverged after the differential batch: %d vs %d", restoredSender.Batch(), sender.Batch())
	}
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
