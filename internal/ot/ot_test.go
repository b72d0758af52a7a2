package ot_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/ot"
)

func randomMessages(t *testing.T, n, size int) [][]byte {
	t.Helper()
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, size)
		if _, err := rand.Read(msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return msgs
}

// TestGroupByName: every name but "x25519" — the spellings of groups
// this package once served among them — is refused with ErrUnknownGroup.
func TestGroupByName(t *testing.T) {
	for _, name := range []string{"", "25519", "512", "modp512-test", "1024", "modp1024", "1536", "2048", "modp2048", "4096", "X25519"} {
		if _, err := ot.GroupByName(name); !errors.Is(err, ot.ErrUnknownGroup) {
			t.Errorf("GroupByName(%q) err = %v, want ErrUnknownGroup", name, err)
		}
	}
}

// transfer1ofN runs a 1-out-of-n transfer: TransferKofN with one index.
func transfer1ofN(g ot.Group, msgs [][]byte, sigma int) ([]byte, error) {
	got, err := ot.TransferKofN(g, msgs, []int{sigma}, rand.Reader)
	if err != nil {
		return nil, err
	}
	return got[0], nil
}

// oneOfN is a prepared 1-out-of-n transfer: both endpoints and the three
// messages of an honest run.
type oneOfN struct {
	sender   *ot.BatchSender
	receiver *ot.BatchReceiver
	setup    *ot.BatchSetup
	choice   *ot.BatchChoice
	tr       *ot.BatchTransfer
}

func newOneOfN(t *testing.T, g ot.Group, msgs [][]byte, sigma int) oneOfN {
	t.Helper()
	var o oneOfN
	var err error
	if o.sender, o.setup, err = ot.NewBatchSender(g, msgs, 1, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if o.receiver, o.choice, err = ot.NewBatchReceiver(g, len(msgs), len(msgs[0]), []int{sigma}, o.setup, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if o.tr, err = o.sender.Respond(o.choice, rand.Reader); err != nil {
		t.Fatal(err)
	}
	return o
}

func Test1of2AllChoices(t *testing.T) {
	g := ot.X25519()
	msgs := [][]byte{[]byte("message-zero-000"), []byte("message-one-1111")}
	for bit := 0; bit < 2; bit++ {
		got, err := transfer1ofN(g, msgs, bit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msgs[bit]) {
			t.Fatalf("bit %d: got %q", bit, got)
		}
	}
}

func Test1ofNEveryIndex(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 7, 32)
	for sigma := 0; sigma < len(msgs); sigma++ {
		got, err := transfer1ofN(g, msgs, sigma)
		if err != nil {
			t.Fatalf("sigma=%d: %v", sigma, err)
		}
		if !bytes.Equal(got, msgs[sigma]) {
			t.Fatalf("sigma=%d: wrong message", sigma)
		}
	}
}

func TestKofN(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 10, 48)
	indices := []int{0, 3, 7, 9}
	got, err := ot.TransferKofN(g, msgs, indices, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		if !bytes.Equal(got[i], msgs[idx]) {
			t.Fatalf("index %d: wrong message", idx)
		}
	}
}

// TestKofNRejectsDuplicates: the receiver refuses a choice that is not
// 1 ≤ k ≤ n distinct in-range indices with a typed error before it sends
// anything.
func TestKofNRejectsDuplicates(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 5, 16)
	_, setup, err := ot.NewBatchSender(g, msgs, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		indices []int
		want    error
	}{
		{"duplicate", []int{2, 2}, ot.ErrDuplicateIndex},
		{"duplicate after others", []int{0, 4, 1, 4}, ot.ErrDuplicateIndex},
		{"k=0", []int{}, ot.ErrBadIndex},
		{"nil indices", nil, ot.ErrBadIndex},
		{"k>n", []int{0, 1, 2, 3, 4, 0}, ot.ErrBadIndex},
		{"negative", []int{-1, 2}, ot.ErrBadIndex},
		{"index n", []int{1, 5}, ot.ErrBadIndex},
	} {
		receiver, choice, err := ot.NewBatchReceiver(g, len(msgs), len(msgs[0]), tc.indices, setup, rand.Reader)
		if !errors.Is(err, tc.want) || receiver != nil || choice != nil {
			t.Errorf("%s: (%v, %v, %v), want a nil receiver and choice and %v", tc.name, receiver, choice, err, tc.want)
		}
	}
}

func TestSenderValidation(t *testing.T) {
	g := ot.X25519()
	if _, _, err := ot.NewBatchSender(g, [][]byte{[]byte("one")}, 1, rand.Reader); err == nil {
		t.Fatal("single message should fail")
	}
	if _, _, err := ot.NewBatchSender(g, [][]byte{[]byte("aa"), []byte("bbb")}, 1, rand.Reader); err == nil {
		t.Fatal("unequal lengths should fail")
	}
}

func TestReceiverValidation(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 4, 16)
	_, setup, err := ot.NewBatchSender(g, msgs, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for name, indices := range map[string][]int{
		"negative sigma": {-1},
		"sigma >= n":     {4},
		"empty choice":   {},
		"duplicate":      {1, 1},
	} {
		if _, _, err := ot.NewBatchReceiver(g, 4, 16, indices, setup, rand.Reader); err == nil {
			t.Fatalf("%s should fail", name)
		}
	}
	if _, _, err := ot.NewBatchReceiver(g, 1, 16, []int{0}, &ot.BatchSetup{}, rand.Reader); err == nil {
		t.Fatal("n = 1 should fail")
	}
	if _, _, err := ot.NewBatchReceiver(g, 4, 16, []int{0}, nil, rand.Reader); err == nil {
		t.Fatal("nil setup should fail")
	}
	bad := &ot.BatchSetup{Cs: make([]byte, 3*ec25519.PointLen)} // y = 0, a point of order 4
	if _, _, err := ot.NewBatchReceiver(g, 4, 16, []int{0}, bad, rand.Reader); err == nil {
		t.Fatal("invalid constraint element should fail")
	}
}

func TestRespondValidation(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 3, 16)
	sender, _, err := ot.NewBatchSender(g, msgs, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Respond(nil, rand.Reader); err == nil {
		t.Fatal("nil choice should fail")
	}
	if _, err := sender.Respond(&ot.BatchChoice{PK0s: make([]byte, ec25519.PointLen)}, rand.Reader); err == nil {
		t.Fatal("invalid PK0 should fail")
	}
}

func TestRecoverValidation(t *testing.T) {
	o := newOneOfN(t, ot.X25519(), randomMessages(t, 3, 16), 1)
	if _, err := o.receiver.Recover(nil); err == nil {
		t.Fatal("nil transfer should fail")
	}
	if _, err := o.receiver.Recover(&ot.BatchTransfer{R: o.tr.R, Cts: o.tr.Cts[:2*16]}); err == nil {
		t.Fatal("short ciphertext blob should fail")
	}
	if _, err := o.receiver.Recover(&ot.BatchTransfer{R: make([]byte, ec25519.PointLen), Cts: o.tr.Cts}); err == nil {
		t.Fatal("invalid R should fail")
	}
}

// TestTamperedCiphertextDecryptsGarbage: flipping ciphertext bits must
// change the recovered plaintext (the OT stream cipher is malleable by
// design; integrity is the upper layer's concern — the field layer rejects
// out-of-range values).
func TestTamperedCiphertextDecryptsGarbage(t *testing.T) {
	msgs := randomMessages(t, 3, 16)
	o := newOneOfN(t, ot.X25519(), msgs, 2)
	o.tr.Cts[2*16] ^= 0xFF // slot 2's first byte
	got, err := o.receiver.Recover(o.tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got[0], msgs[2]) {
		t.Fatal("tampered ciphertext recovered the original message")
	}
}

// TestNonChosenMessagesUnreadable: decrypting a non-chosen slot with the
// receiver's key yields garbage (sender privacy, §III-B).
func TestNonChosenMessagesUnreadable(t *testing.T) {
	msgs := randomMessages(t, 4, 24)
	o := newOneOfN(t, ot.X25519(), msgs, 1)
	got, err := o.receiver.Recover(o.tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], msgs[1]) {
		t.Fatal("chosen message wrong")
	}
	// A receiver that lies about sigma post-hoc must not get message 2:
	// a 1-of-n's block is its n messages alone, each under its own
	// instance-0 slot key, so move message 2 into message 1's place,
	// where the receiver opens it with its own slot key.
	tr := &ot.BatchTransfer{R: o.tr.R, Cts: append([]byte(nil), o.tr.Cts...)}
	copy(tr.Cts[24:2*24], o.tr.Cts[2*24:3*24])
	leaked, err := o.receiver.Recover(tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(leaked[0], msgs[2]) {
		t.Fatal("receiver decrypted a non-chosen message")
	}
}

// TestChoiceHidesIndex: the receiver's PK0 distribution must not reveal
// sigma. We sanity-check that PK0 values differ across runs and are valid
// group elements for every sigma.
func TestChoiceHidesIndex(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 4, 16)
	_, setup, err := ot.NewBatchSender(g, msgs, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for sigma := 0; sigma < 4; sigma++ {
		for run := 0; run < 3; run++ {
			_, choice, err := ot.NewBatchReceiver(g, 4, 16, []int{sigma}, setup, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pk0 := choice.PK0s
			if _, err := g.Decode(pk0); err != nil {
				t.Fatalf("PK0 not a valid element: %v", err)
			}
			key := string(pk0)
			if seen[key] {
				t.Fatal("PK0 collision across runs (randomness broken)")
			}
			seen[key] = true
		}
	}
}

// TestBatchMismatchedCounts: the k instances share one setup, so the
// receiver cannot read k from it. A k mismatch is refused where it shows:
// at Respond, which wants one public key per instance, and at Recover,
// which wants the once-sent block of (k−1)·n 16-byte key ciphertexts and n
// messages of the messages' width.
func TestBatchMismatchedCounts(t *testing.T) {
	g := ot.X25519()
	msgs := randomMessages(t, 5, 24)
	sender, setup, err := ot.NewBatchSender(g, msgs, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ot.ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", what, err)
		}
	}
	receiver3, choice3, err := ot.NewBatchReceiver(g, 5, 24, []int{1, 2, 3}, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sender.Respond(choice3, rand.Reader)
	want("Respond(3 choices for k=2)", err)
	receiver, choice, err := ot.NewBatchReceiver(g, 5, 24, []int{1, 2}, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sender.Respond(&ot.BatchChoice{PK0s: choice.PK0s[:ec25519.PointLen]}, rand.Reader)
	want("Respond(1 choice for k=2)", err)
	_, err = sender.Respond(nil, rand.Reader)
	want("Respond(nil)", err)
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = receiver3.Recover(tr)
	want("Recover(k=2 transfer, k=3 receiver)", err)
	// The honest block is (k−1)·n = 5 key ciphertexts of 16 bytes and
	// n = 5 messages of 24.
	cts := tr.Cts
	for name, bad := range map[string][]byte{
		"(k−1)·n−1 key ciphertexts":  cts[16:],
		"(k−1)·n+1 key ciphertexts":  append(append([]byte(nil), cts[:16]...), cts...),
		"one byte short":             cts[:len(cts)-1],
		"one byte over":              append(append([]byte(nil), cts...), 0),
		"n messages, no keys":        cts[5*16:],
		"k·n slots of 16 bytes":      make([]byte, 2*5*16),
		"k copies of n messages":     make([]byte, 2*5*24),
		"k·n keys, n messages":       make([]byte, 2*5*16+5*24),
		"(k−1)·n keys, n+1 messages": append(append([]byte(nil), cts...), cts[len(cts)-24:]...),
	} {
		_, err = receiver.Recover(&ot.BatchTransfer{R: tr.R, Cts: bad})
		want("Recover("+name+")", err)
	}
	_, err = receiver.Recover(&ot.BatchTransfer{})
	want("Recover(no transfer)", err)
	_, _, err = ot.NewBatchReceiver(g, 5, 16, []int{1, 2}, &ot.BatchSetup{}, rand.Reader)
	want("NewBatchReceiver(no setup)", err)
	got, err := receiver.Recover(tr)
	if err != nil || !bytes.Equal(got[0], msgs[1]) || !bytes.Equal(got[1], msgs[2]) {
		t.Fatalf("honest transfer after the rejections: %v", err)
	}
	if _, _, err := ot.NewBatchSender(g, msgs, 0, rand.Reader); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, _, err := ot.NewBatchSender(g, msgs, 6, rand.Reader); err == nil {
		t.Fatal("k>n should fail")
	}
}

// A 1-out-of-n transfer is a k-out-of-n with one index.
func ExampleTransferKofN() {
	g := ot.X25519()
	msgs := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("carol")}
	got, err := ot.TransferKofN(g, msgs, []int{1}, rand.Reader)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(string(got[0]))
	// Output: bravo
}
