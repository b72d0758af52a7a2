package ot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// parentTranscripts pins the SHA-256 over the three marshalled messages
// (setup ‖ choice ‖ transfer) of a Naor–Pinkas transfer run under the
// deterministic rng below. Refactors change how elements are computed,
// never which bytes travel.
//
// They were last re-recorded when the batch became a random OT: every
// key is taken at the cofactor-cleared point, so the KDF inputs changed;
// each message is sent once under its own key, so the transfer has the
// once-sent layout; and a scalar is one 64-byte read, so every draw
// moved in the rng stream. At the same time the digests stopped
// re-framing the messages in the integer layout they had before
// elements became fixed-width blobs, and hash the messages as they
// travel. They were re-recorded once more when instance 0's slot keys
// became the message keys: the transfer's block lost instance 0's key
// ciphertexts, and the sender draws no message keys after r.
var parentTranscripts = map[string]string{
	"x25519/1of2":  "f5c40437272713f0bd1fe60e33f14e78fe4cfe99df4c1fec502c086d64081419",
	"x25519/1of18": "4e9fbc1e41e068c9a08d4aeeb577878f9e3052cd267b80e84a98f7eb764c8da6",
	"x25519/9of18": "5c83eb126fb56376db47dadc1f04f0e58f25a0c461d08ee7b8932b0349094520",
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
	for _, m := range []wire.Msg{setup, choice, tr} {
		data, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
