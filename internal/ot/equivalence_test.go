package ot

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// parentTranscripts pins the SHA-256 over the three marshalled messages
// (setup ‖ choice ‖ transfer) of a Naor–Pinkas transfer run under the
// deterministic rng below, as produced by the commit before the group seam
// moved to decoded elements (60d100d). The rewrite changes how elements
// are computed, never which bytes travel.
var parentTranscripts = map[string]string{
	"x25519/1of2":        "bc99474d4ea717613b1ce4c44aabfd0479aa76f6ceb77244e513c4b06796ed1b",
	"x25519/1of18":       "7257898f4bd1311dd78ba2ddbaae4195e6714e0220e05b36adbabe21e9646bc9",
	"x25519/9of18":       "efa5aa740894c809c87cd1c6c1f861060e0a7daa7b4cecdb22d09968e71e6430",
	"modp512-test/1of2":  "564c7e40604a3216aea42244de2dc30dc2edb1a0e36d5e182a026e6e52ade168",
	"modp512-test/1of18": "33f443d1dd53fa92eec345e93ddcc28e7d2312452d427b2fe1bba51108a5522f",
	"modp512-test/9of18": "69b936c6a205372ff4bdc75cd0bed97f8d3c8ae0cf49d778dc64f7945d2dc64b",
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
	for _, group := range []Group{X25519(), Group512Test()} {
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
				// One 1-of-n instance is n+3 scalar multiplications:
				// g^r, PK0^r and the n−1 C_i^r on the sender, g^x and
				// R^x on the receiver. Sampling the constraints is not
				// counted (it never was).
				want := int64(len(sh.indices) * (sh.n + 3))
				if exps := reg.Counter(obs.CtrGroupExp); exps != want {
					t.Errorf("%s = %d, want %d", obs.CtrGroupExp, exps, want)
				}
			})
		}
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
	receiver, choice, err := NewBatchReceiver(group, len(msgs), indices, setup, rng)
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
	for _, m := range []encoding.BinaryMarshaler{setup, choice, tr} {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
