package ot_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ot"
)

func testGroup() ot.Group { return ot.Group512Test() }

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

func TestGroupsAreSafePrimes(t *testing.T) {
	groups := []*ot.ModpGroup{ot.Group512Test(), ot.Group1024(), ot.Group1536(), ot.Group2048()}
	for _, g := range groups {
		t.Run(g.Name(), func(t *testing.T) {
			if !g.P.ProbablyPrime(32) {
				t.Fatal("P not prime")
			}
			if !g.Q.ProbablyPrime(32) {
				t.Fatal("Q not prime")
			}
			// p = 2q+1
			check := new(big.Int).Lsh(g.Q, 1)
			check.Add(check, big.NewInt(1))
			if check.Cmp(g.P) != 0 {
				t.Fatal("P != 2Q+1")
			}
			// g generates the order-q subgroup: g^q == 1.
			if g.Exp(g.G, g.Q).(*big.Int).Cmp(big.NewInt(1)) != 0 {
				t.Fatal("generator does not have order Q")
			}
		})
	}
}

func TestGroupByName(t *testing.T) {
	for _, name := range []string{"512", "1024", "1536", "2048", "modp2048"} {
		if _, err := ot.GroupByName(name); err != nil {
			t.Fatalf("GroupByName(%s): %v", name, err)
		}
	}
	if _, err := ot.GroupByName("4096"); err == nil {
		t.Fatal("unknown group should fail")
	}
}

func Test1of2AllChoices(t *testing.T) {
	g := testGroup()
	msgs := [2][]byte{[]byte("message-zero-000"), []byte("message-one-1111")}
	for bit := 0; bit < 2; bit++ {
		got, err := ot.Transfer1of2(g, msgs, bit, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msgs[bit]) {
			t.Fatalf("bit %d: got %q", bit, got)
		}
	}
}

func Test1ofNEveryIndex(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 7, 32)
	for sigma := 0; sigma < len(msgs); sigma++ {
		got, err := ot.Transfer1ofN(g, msgs, sigma, rand.Reader)
		if err != nil {
			t.Fatalf("sigma=%d: %v", sigma, err)
		}
		if !bytes.Equal(got, msgs[sigma]) {
			t.Fatalf("sigma=%d: wrong message", sigma)
		}
	}
}

func TestKofN(t *testing.T) {
	g := testGroup()
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

func TestKofNRejectsDuplicates(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 5, 16)
	sender, setup, err := ot.NewBatchSender(g, msgs, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_ = sender
	if _, _, err := ot.NewBatchReceiver(g, len(msgs), []int{2, 2}, setup, rand.Reader); err == nil {
		t.Fatal("duplicate indices should fail")
	}
}

func TestSenderValidation(t *testing.T) {
	g := testGroup()
	if _, _, err := ot.NewSender(g, [][]byte{[]byte("one")}, rand.Reader); err == nil {
		t.Fatal("single message should fail")
	}
	if _, _, err := ot.NewSender(g, [][]byte{[]byte("aa"), []byte("bbb")}, rand.Reader); err == nil {
		t.Fatal("unequal lengths should fail")
	}
}

func TestReceiverValidation(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 4, 16)
	_, setup, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ot.NewReceiver(g, 4, -1, setup, rand.Reader); err == nil {
		t.Fatal("negative sigma should fail")
	}
	if _, _, err := ot.NewReceiver(g, 4, 4, setup, rand.Reader); err == nil {
		t.Fatal("sigma >= n should fail")
	}
	if _, _, err := ot.NewReceiver(g, 4, 0, nil, rand.Reader); err == nil {
		t.Fatal("nil setup should fail")
	}
	bad := &ot.SenderSetup{Cs: []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(1)}}
	if _, _, err := ot.NewReceiver(g, 4, 0, bad, rand.Reader); err == nil {
		t.Fatal("invalid constraint element should fail")
	}
}

func TestRespondValidation(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 3, 16)
	sender, _, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Respond(nil, rand.Reader); err == nil {
		t.Fatal("nil choice should fail")
	}
	if _, err := sender.Respond(&ot.ReceiverChoice{PK0: big.NewInt(0)}, rand.Reader); err == nil {
		t.Fatal("PK0=0 should fail")
	}
}

func TestRecoverValidation(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 3, 16)
	sender, setup, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := ot.NewReceiver(g, 3, 1, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Recover(nil); err == nil {
		t.Fatal("nil transfer should fail")
	}
	if _, err := receiver.Recover(&ot.SenderTransfer{R: tr.R, Cts: tr.Cts[:2]}); err == nil {
		t.Fatal("short ciphertext list should fail")
	}
	if _, err := receiver.Recover(&ot.SenderTransfer{R: big.NewInt(0), Cts: tr.Cts}); err == nil {
		t.Fatal("invalid R should fail")
	}
}

// TestTamperedCiphertextDecryptsGarbage: flipping ciphertext bits must
// change the recovered plaintext (the OT stream cipher is malleable by
// design; integrity is the upper layer's concern — the field layer rejects
// out-of-range values).
func TestTamperedCiphertextDecryptsGarbage(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 3, 16)
	sender, setup, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := ot.NewReceiver(g, 3, 2, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr.Cts[2][0] ^= 0xFF
	got, err := receiver.Recover(tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msgs[2]) {
		t.Fatal("tampered ciphertext recovered the original message")
	}
}

// TestNonChosenMessagesUnreadable: decrypting a non-chosen slot with the
// receiver's key yields garbage (sender privacy, §III-B).
func TestNonChosenMessagesUnreadable(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 4, 24)
	sender, setup, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := ot.NewReceiver(g, 4, 1, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Recover(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msgs[1]) {
		t.Fatal("chosen message wrong")
	}
	// A receiver that lies about sigma post-hoc (tries index 2's slot with
	// its index-1 key) must not get message 2: swap ciphertexts so the
	// receiver decrypts slot 2's bytes with its own key/pad.
	tr.Cts[1] = tr.Cts[2]
	leaked, err := receiver.Recover(tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(leaked, msgs[2]) {
		t.Fatal("receiver decrypted a non-chosen message")
	}
}

// TestChoiceHidesIndex: the receiver's PK0 distribution must not reveal
// sigma. We sanity-check that PK0 values differ across runs and are valid
// group elements for every sigma.
func TestChoiceHidesIndex(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 4, 16)
	_, setup, err := ot.NewSender(g, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for sigma := 0; sigma < 4; sigma++ {
		for run := 0; run < 3; run++ {
			_, choice, err := ot.NewReceiver(g, 4, sigma, setup, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Decode(choice.PK0); err != nil {
				t.Fatalf("PK0 not a valid element: %v", err)
			}
			key := choice.PK0.String()
			if seen[key] {
				t.Fatal("PK0 collision across runs (randomness broken)")
			}
			seen[key] = true
		}
	}
}

func TestElementLen(t *testing.T) {
	g := ot.Group2048()
	if g.ElementLen() != 256 {
		t.Fatalf("2048-bit group element length = %d", g.ElementLen())
	}
	if g.Bits() != 2048 {
		t.Fatalf("bits = %d", g.Bits())
	}
}

func TestLargeGroupRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("large-group modexp")
	}
	for _, g := range []ot.Group{ot.Group1024(), ot.Group2048()} {
		t.Run(g.Name(), func(t *testing.T) {
			msgs := randomMessages(t, 3, 32)
			got, err := ot.Transfer1ofN(g, msgs, 2, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msgs[2]) {
				t.Fatal("wrong message")
			}
		})
	}
}

// TestBatchMismatchedCounts: the k instances share one setup, so the
// receiver cannot read k from it. A k mismatch is refused where it shows:
// at Respond, which wants one choice per instance, and at Recover, which
// wants exactly k·n ciphertexts.
func TestBatchMismatchedCounts(t *testing.T) {
	g := testGroup()
	msgs := randomMessages(t, 5, 16)
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
	receiver3, choice3, err := ot.NewBatchReceiver(g, 5, []int{1, 2, 3}, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sender.Respond(choice3, rand.Reader)
	want("Respond(3 choices for k=2)", err)
	receiver, choice, err := ot.NewBatchReceiver(g, 5, []int{1, 2}, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sender.Respond(&ot.BatchChoice{Choices: choice.Choices[:1]}, rand.Reader)
	want("Respond(1 choice for k=2)", err)
	_, err = sender.Respond(nil, rand.Reader)
	want("Respond(nil)", err)
	tr, err := sender.Respond(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = receiver3.Recover(tr)
	want("Recover(k=2 transfer, k=3 receiver)", err)
	cts := tr.Transfer.Cts
	for name, bad := range map[string][][]byte{
		"k·n−1 ciphertexts": cts[:len(cts)-1],
		"k·n+1 ciphertexts": append(append([][]byte(nil), cts...), cts[0]),
		"n ciphertexts":     cts[:5],
	} {
		_, err = receiver.Recover(&ot.BatchTransfer{Transfer: &ot.SenderTransfer{R: tr.Transfer.R, Cts: bad}})
		want("Recover("+name+")", err)
	}
	_, err = receiver.Recover(&ot.BatchTransfer{})
	want("Recover(no transfer)", err)
	_, _, err = ot.NewBatchReceiver(g, 5, []int{1, 2}, &ot.BatchSetup{}, rand.Reader)
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

func ExampleTransfer1ofN() {
	g := ot.Group512Test()
	msgs := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("carol")}
	got, err := ot.Transfer1ofN(g, msgs, 1, rand.Reader)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(string(got))
	// Output: bravo
}
