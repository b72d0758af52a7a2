package ot_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/ot"
)

// TestIKNPBatch: every random OT of a batch hands the receiver exactly
// the sender's key for its choice bit.
func TestIKNPBatch(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	extBatch(t, sender, receiver, 1, 200)
}

// TestIKNPNonChosenUnreadable: no key the receiver derives is any key it
// did not choose — the other key of transfer j is H at q_j ⊕ s, which
// differs from the receiver's t_j by the secret s.
func TestIKNPNonChosenUnreadable(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	choices := []int{0, 1, 0, 1, 1, 0, 0, 1, 1}
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
	const w = 16
	unchosen := map[string]int{}
	for j, c := range choices {
		other := k1
		if c == 1 {
			other = k0
		}
		unchosen[string(other[j*w:(j+1)*w])] = j
	}
	for j := range choices {
		if i, ok := unchosen[string(got[j*w:(j+1)*w])]; ok {
			t.Fatalf("transfer %d: receiver key is the unchosen key of transfer %d", j, i)
		}
	}
}

func TestIKNPValidation(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := receiver.Extend(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, _, err := receiver.Extend([]int{2}); err == nil {
		t.Fatal("non-bit choice should fail")
	}
	_, msg, err := receiver.Extend([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sender.Keys(nil); err == nil {
		t.Fatal("nil message should fail")
	}
	if _, _, err := sender.Keys(&ot.IKNPReceiverMsg{U: msg.U[1:], M: msg.M}); err == nil {
		t.Fatal("short column block should fail")
	}
	if _, _, err := sender.Keys(&ot.IKNPReceiverMsg{U: msg.U, M: 0}); err == nil {
		t.Fatal("zero transfers should fail")
	}
	// Neither end extends before its base phase is done.
	earlyRecv, setup, err := ot.NewIKNPReceiverBase(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := earlyRecv.Extend([]int{0, 1}); !errors.Is(err, ot.ErrIKNP) {
		t.Fatalf("Extend before BaseRespond: err = %v, want ErrIKNP", err)
	}
	earlySend, _, err := ot.NewIKNPSenderBase(ot.X25519(), setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := earlySend.Keys(msg); !errors.Is(err, ot.ErrIKNP) {
		t.Fatalf("Keys before BaseFinish: err = %v, want ErrIKNP", err)
	}
}

// TestIKNPSecondBatch: one base phase serves multiple Extend batches —
// both endpoints advance a lockstep batch counter so every batch gets
// fresh pseudorandom columns, and so fresh keys (reuse would leak r ⊕ r'
// and repeat keys).
func TestIKNPSecondBatch(t *testing.T) {
	sender, receiver, err := ot.NewIKNP(ot.X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, first, _ := extBatch(t, sender, receiver, 3, 3)
	_, second, _ := extBatch(t, sender, receiver, 3, 3)
	for b := range first {
		if bytes.Equal(first[b], second[b]) {
			t.Fatalf("key half %d repeats across batches", b)
		}
	}
}

func TestExtKofN(t *testing.T) {
	g := ot.X25519()
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
	g := ot.X25519()
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

// TestExtKofNNonChosenUnreadable: a 2-of-8 receiver holding both its
// chosen paths, 2 in instance 0 and 6 in instance 1, opens neither
// unchosen message moved into its chosen places: message 5 into index
// 2's, which instance 0's digest of 2 opens as K_2, and message 3, with
// instance 1's tree ciphertext of K_3, into index 6's.
func TestExtKofNNonChosenUnreadable(t *testing.T) {
	g := ot.X25519()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const n, w = 8, 24
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, w)
		if _, err := rand.Read(msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	q, req, err := ot.NewExtKofNBatchQuery(receiver, n, [][]int{{2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ot.ExtKofNBatchRespond(sender, req, [][][]byte{msgs}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 1's tree ciphertext of K_m is at m·16, message m at
	// n·16 + m·w.
	const tree = n * 16
	copy(resp.Cts[6*16:7*16], resp.Cts[3*16:4*16])
	copy(resp.Cts[tree+2*w:tree+3*w], resp.Cts[tree+5*w:tree+6*w])
	copy(resp.Cts[tree+6*w:tree+7*w], resp.Cts[tree+3*w:tree+4*w])
	leaked, err := q.Recover(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []int{5, 3} {
		if bytes.Equal(leaked[0][i], msgs[m]) {
			t.Fatalf("instance %d read non-chosen message %d through its path keys", i, m)
		}
	}
}

func TestExtKofNBatch(t *testing.T) {
	g := ot.X25519()
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
	g := ot.X25519()
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
	g := ot.X25519()
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
