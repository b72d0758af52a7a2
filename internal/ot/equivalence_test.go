package ot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/obs"
	"repro/internal/wire"
)

// parentTranscripts pins the SHA-256 over the three marshalled messages
// (setup ‖ choice ‖ transfer) of a Naor–Pinkas transfer run under the
// deterministic rng below, as first produced by the commit before the
// group seam moved to decoded elements (60d100d). Refactors change how
// elements are computed, never which bytes travel.
//
// The digests hash the messages in the integer layout they were recorded
// in (parentElements, parentTransfer): the batch messages have since become fixed-width
// blobs, a framing change only, so every element and ciphertext must still
// re-frame to the recorded bytes.
//
// They were re-recorded once when the k instances of a k-of-n became one
// batch, and the setup and transfer lost their per-instance list layout.
// A batch of one still carries the parent's bytes: its 1of2 and 1of18
// digests equal the parent's digest over the inner setup ‖ choice ‖
// transfer (58f2b26, which wrapped the setup and the transfer in a list of
// one). The 9of18 digests hash the new one-batch messages.
var parentTranscripts = map[string]string{
	"x25519/1of2":  "35b6687787204bdd3feb40ec70a6d21b9e382ce297c18a6a95365d4c7864d366",
	"x25519/1of18": "5e92de4c4ed15c42bec08642ad3a44f1aa2d0f99d5d72c68c7b42f5e0dc5d3bb",
	"x25519/9of18": "fa46a80a9e503a544824a80a3ce76511d0837a96c566c07d7c4b086ba2c85355",
}

func TestTranscriptsMatchParent(t *testing.T) {
	shapes := []struct {
		name    string
		n       int
		indices []int
	}{
		{"1of2", 2, []int{1}},
		{"1of18", 18, []int{11}},
		{"9of18", 18, []int{17, 0, 3, 8, 5, 12, 9, 14, 1}},
	}
	group := X25519()
	for _, sh := range shapes {
		name := group.Name() + "/" + sh.name
		t.Run(name, func(t *testing.T) {
			msgs := make([][]byte, sh.n)
			for i := range msgs {
				msgs[i] = []byte(fmt.Sprintf("equivalence-%02d", i))
			}
			reg := obs.NewRegistry()
			prev := obs.SwapDefault(reg)
			got := transcriptDigest(t, group, msgs, sh.indices)
			obs.SwapDefault(prev)
			if got != parentTranscripts[name] {
				t.Errorf("transcript digest %s, parent produced %s", got, parentTranscripts[name])
			}
			// A k-of-n batch is n+3k scalar multiplications: g^r, the
			// n−1 C_j^r and k PK_{i,0}^r on the sender, k g^x and k
			// R^x on the receiver. Sampling the constraints is not
			// counted (it never was).
			want := int64(sh.n + 3*len(sh.indices))
			if exps := reg.Counter(obs.CtrGroupExp); exps != want {
				t.Errorf("%s = %d, want %d", obs.CtrGroupExp, exps, want)
			}
		})
	}
}

// transcriptDigest runs one k-of-n transfer under a fixed rng stream and
// hashes its three messages.
func transcriptDigest(t *testing.T, group Group, msgs [][]byte, indices []int) string {
	t.Helper()
	rng := newDetReader("naor-pinkas-equivalence")
	sender, setup, err := NewBatchSender(group, msgs, len(indices), rng)
	if err != nil {
		t.Fatal(err)
	}
	receiver, choice, err := NewBatchReceiver(group, len(msgs), len(msgs[0]), indices, setup, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.Respond(choice, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := receiver.Recover(tr)
	if err != nil {
		t.Fatal(err)
	}
	for j, idx := range indices {
		if !bytes.Equal(out[j], msgs[idx]) {
			t.Fatalf("recovered[%d] = %q, want %q", j, out[j], msgs[idx])
		}
	}
	h := sha256.New()
	h.Write(parentElements(setup.Cs))
	h.Write(parentElements(choice.PK0s))
	h.Write(parentTransfer(tr, len(indices)*len(msgs)))
	return hex.EncodeToString(h.Sum(nil))
}

// parentElements and parentTransfer encode a batch message in the layout
// the batch messages had while a group element travelled as an integer:
// a count, then each element as a length-prefixed big-endian magnitude
// without leading zero bytes; a transfer as R in that form, then a count
// and each of its slots ciphertexts as its own length-prefixed slice.
func parentElements(blob []byte) []byte {
	w := wire.NewAppendWriter(nil)
	w.Count(len(blob) / ec25519.PointLen)
	for i := 0; i < len(blob)/ec25519.PointLen; i++ {
		w.ByteSlice(bytes.TrimLeft(element(blob, i), "\x00"))
	}
	return w.Bytes()
}

func parentTransfer(tr *BatchTransfer, slots int) []byte {
	w := wire.NewAppendWriter(nil)
	w.ByteSlice(bytes.TrimLeft(tr.R, "\x00"))
	w.Count(slots)
	width := len(tr.Cts) / slots
	for j := 0; j < slots; j++ {
		w.ByteSlice(tr.Cts[j*width : (j+1)*width])
	}
	return w.Bytes()
}
