package ot_test

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/ot"
)

func TestIKNPBatch(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const m = 200
	rng := mrand.New(mrand.NewPCG(1, 2))
	choices := make([]int, m)
	x0 := make([][]byte, m)
	x1 := make([][]byte, m)
	for j := 0; j < m; j++ {
		choices[j] = rng.IntN(2)
		x0[j] = make([]byte, 32)
		x1[j] = make([]byte, 32)
		if _, err := rand.Read(x0[j]); err != nil {
			t.Fatal(err)
		}
		if _, err := rand.Read(x1[j]); err != nil {
			t.Fatal(err)
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
		other := x1[j]
		if choices[j] == 1 {
			want, other = x1[j], x0[j]
		}
		if !bytes.Equal(got[j], want) {
			t.Fatalf("transfer %d: wrong message", j)
		}
		if bytes.Equal(got[j], other) {
			t.Fatalf("transfer %d: recovered the non-chosen message", j)
		}
	}
}

// TestIKNPNonChosenUnreadable: decrypting the other slot with the
// receiver's row must yield garbage — the pad for q_j⊕s differs by the
// secret s.
func TestIKNPNonChosenUnreadable(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	choices := []int{0, 1, 0, 1}
	x0 := [][]byte{[]byte("zero-msg-0000000"), []byte("zero-msg-1111111"), []byte("zero-msg-2222222"), []byte("zero-msg-3333333")}
	x1 := [][]byte{[]byte("one-msg-00000000"), []byte("one-msg-11111111"), []byte("one-msg-22222222"), []byte("one-msg-33333333")}
	ext, recvMsg, err := receiver.Extend(choices)
	if err != nil {
		t.Fatal(err)
	}
	sendMsg, err := sender.Respond(recvMsg, x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the ciphertext pairs so the receiver decrypts the slot it did
	// not choose with its own pads.
	swapped := &ot.IKNPSenderMsg{Y0: sendMsg.Y1, Y1: sendMsg.Y0, MsgLen: sendMsg.MsgLen}
	leaked, err := ext.Recover(swapped)
	if err != nil {
		t.Fatal(err)
	}
	for j := range choices {
		other := x1[j]
		if choices[j] == 1 {
			other = x0[j]
		}
		if bytes.Equal(leaked[j], other) {
			t.Fatalf("transfer %d: non-chosen message readable", j)
		}
	}
}

func TestIKNPValidation(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := receiver.Extend(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, _, err := receiver.Extend([]int{2}); err == nil {
		t.Fatal("non-bit choice should fail")
	}
	ext, msg, err := receiver.Extend([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Respond(nil, nil, nil); err == nil {
		t.Fatal("nil message should fail")
	}
	if _, err := sender.Respond(msg, [][]byte{{1}}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("pair-count mismatch should fail")
	}
	if _, err := sender.Respond(msg, [][]byte{{1}, {2, 3}}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("unequal message lengths should fail")
	}
	if _, err := ext.Recover(nil); err == nil {
		t.Fatal("nil ciphertext batch should fail")
	}
}

// TestIKNPSecondBatch: one base phase serves multiple Extend batches —
// both endpoints advance a lockstep batch counter so every batch gets
// fresh pseudorandom columns (reuse would leak r ⊕ r').
func TestIKNPSecondBatch(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		choices := []int{1, 0, 1}
		x0 := [][]byte{{10}, {20}, {30}}
		x1 := [][]byte{{11}, {21}, {31}}
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
		want := []byte{11, 20, 31}
		for j := range want {
			if got[j][0] != want[j] {
				t.Fatalf("round %d transfer %d: got %d want %d", round, j, got[j][0], want[j])
			}
		}
	}
}

func TestExtKofN(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Several sequential batches of one on one session.
	for round := 0; round < 3; round++ {
		msgs := make([][]byte, 6)
		for i := range msgs {
			msgs[i] = make([]byte, 32)
			if _, err := rand.Read(msgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		indices := []int{5, 0, 3}
		q, req, err := ot.NewExtKofNBatchQuery(receiver, len(msgs), [][]int{indices})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ot.ExtKofNBatchRespond(sender, req, [][][]byte{msgs}, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Recover(resp)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range indices {
			if !bytes.Equal(got[0][i], msgs[idx]) {
				t.Fatalf("round %d: index %d wrong", round, idx)
			}
		}
	}
}

func TestExtKofNValidation(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 1, [][]int{{0}}); err == nil {
		t.Fatal("n=1 should fail")
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{1, 1}}); err == nil {
		t.Fatal("duplicate indices should fail")
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{4}}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	_, req, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{{1}, {2}, {3}, {4}}
	if _, err := ot.ExtKofNBatchRespond(sender, req, [][][]byte{msgs[:3]}, rand.Reader); err == nil {
		t.Fatal("message-count mismatch should fail")
	}
	if _, err := ot.ExtKofNBatchRespond(sender, nil, [][][]byte{msgs}, rand.Reader); err == nil {
		t.Fatal("nil request should fail")
	}
}

// TestExtKofNNonChosenUnreadable: an instance's path keys decrypt only
// its chosen index.
func TestExtKofNNonChosenUnreadable(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = make([]byte, 24)
		if _, err := rand.Read(msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	q, req, err := ot.NewExtKofNBatchQuery(receiver, len(msgs), [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ot.ExtKofNBatchRespond(sender, req, [][][]byte{msgs}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Swap another ciphertext into the chosen slot: the path pad must not
	// decrypt it (index domain separation + different key path).
	copy(resp.Cts[2*resp.MsgLen:3*resp.MsgLen], resp.Cts[5*resp.MsgLen:6*resp.MsgLen])
	leaked, err := q.Recover(resp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(leaked[0][0], msgs[5]) {
		t.Fatal("non-chosen message readable through the path keys")
	}
}

func TestExtKofNBatch(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	indices := [][]int{{5, 0, 3}, {1, 2, 4}, {0, 1, 5}, {3, 4, 2}}
	msgs := make([][][]byte, len(indices))
	for b := range msgs {
		msgs[b] = make([][]byte, n)
		for i := range msgs[b] {
			msgs[b][i] = make([]byte, 32)
			if _, err := rand.Read(msgs[b][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, req, err := ot.NewExtKofNBatchQuery(receiver, n, indices)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ot.ExtKofNBatchRespond(sender, req, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Recover(resp)
	if err != nil {
		t.Fatal(err)
	}
	for b, idx := range indices {
		for i, sel := range idx {
			if !bytes.Equal(got[b][i], msgs[b][sel]) {
				t.Fatalf("sample %d index %d wrong", b, sel)
			}
		}
	}
}

// TestExtKofNInFlight: two batches of one opened before either response arrives —
// the per-batch extension state must not be clobbered by the second
// Extend, as long as responses come back in FIFO order.
func TestExtKofNInFlight(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]byte, 4)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i * 7), byte(i * 13)}
	}
	q1, req1, err := ot.NewExtKofNBatchQuery(receiver, len(msgs), [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	q2, req2, err := ot.NewExtKofNBatchQuery(receiver, len(msgs), [][]int{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := ot.ExtKofNBatchRespond(sender, req1, [][][]byte{msgs}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := ot.ExtKofNBatchRespond(sender, req2, [][][]byte{msgs}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := q1.Recover(resp1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := q2.Recover(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1[0][0], msgs[2]) {
		t.Fatal("first in-flight query corrupted")
	}
	if !bytes.Equal(got2[0][0], msgs[1]) || !bytes.Equal(got2[0][1], msgs[3]) {
		t.Fatal("second in-flight query corrupted")
	}
}

func TestExtKofNBatchValidation(t *testing.T) {
	g := ot.Group512Test()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 4, nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{0, 1}, {2}}); err == nil {
		t.Fatal("ragged index sets should fail")
	}
	if _, _, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{0, 0}}); err == nil {
		t.Fatal("duplicate indices should fail")
	}
	_, req, err := ot.NewExtKofNBatchQuery(receiver, 4, [][]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][][]byte{{{1}, {2}, {3}, {4}}, {{5}, {6}, {7}, {8}}}
	if _, err := ot.ExtKofNBatchRespond(sender, req, msgs[:1], rand.Reader); err == nil {
		t.Fatal("sample-count mismatch should fail")
	}
	if _, err := ot.ExtKofNBatchRespond(sender, nil, msgs, rand.Reader); err == nil {
		t.Fatal("nil request should fail")
	}
}
