package classify_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/classify"
	"repro/internal/field"
	"repro/internal/svm"
)

// parentTranscripts pins the SHA-256 over every trainer response of two
// fast sessions (one batch of four samples each) under the deterministic
// rngs below, as produced at 27a7abe, when the direct-mode trainer still
// evaluated the kernel form Σ_s αy_s(a_s·z + b0)^p + b term by term.
// Rewriting how the trainer computes its decision function must never
// change which bytes travel.
var parentTranscripts = map[string]string{
	"cubic/big521":     "25aefa0ea94806fbd816a0cb1d923d71dae99f892634005bb6c0f21831ed6ada",
	"quadratic/limb16": "5edc0fc8b47cf4bba3ef150f5283efb2db3b41d1ab7933d20800bc66b87721fa",
}

// detReader is a deterministic byte stream: SHA-256 in counter mode.
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

func TestTranscriptsMatchParent(t *testing.T) {
	cases := []struct {
		name    string
		kernel  svm.Kernel
		backend field.Backend
		mutate  func(*classify.Params)
	}{
		// The paper's cubic (b0 = 0): the protocol asks for ~270 bits, so
		// the field is 2^521−1 on math/big.
		{"cubic/big521", svm.PaperPolynomial(8), field.BackendBig, nil},
		// A degree-2 model with b0 ≠ 0, trimmed to fit the limb field.
		{"quadratic/limb16", svm.Polynomial(1.0/8, 1, 2), field.BackendLimb, func(p *classify.Params) {
			p.FieldBackend = field.BackendLimb
			p.FracBits = 16
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, test := trainSmall(t, tc.kernel, 100)
			for _, par := range []int{1, 4} {
				params := fastParams()
				params.Parallelism = par
				if tc.mutate != nil {
					tc.mutate(&params)
				}
				trainer, err := classify.NewTrainer(model, params)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "cubic/big521" && trainer.Spec().FieldBits != 521 {
					t.Fatalf("cubic model on a %d-bit field, want 521", trainer.Spec().FieldBits)
				}
				spec := trainer.SessionSpec(tc.backend)
				h := sha256.New()
				clientRng, trainerRng := newDetReader("classify-client"), newDetReader("classify-trainer")
				for session := 0; session < 2; session++ {
					samples := test.X[4*session : 4*session+4]
					fc, setup, err := classify.NewFastClient(spec, clientRng)
					if err != nil {
						t.Fatal(err)
					}
					ft, choice, err := trainer.NewFastSessionFor(spec, setup, trainerRng)
					if err != nil {
						t.Fatal(err)
					}
					tr, err := fc.FinishBase(choice, clientRng)
					if err != nil {
						t.Fatal(err)
					}
					if err := ft.FinishBase(tr); err != nil {
						t.Fatal(err)
					}
					batch, req, err := fc.NewBatch(samples, clientRng)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := ft.HandleBatch(req, trainerRng)
					if err != nil {
						t.Fatal(err)
					}
					b, err := resp.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					labels, err := batch.Finish(resp)
					if err != nil {
						t.Fatal(err)
					}
					for i, sample := range samples {
						want, err := model.Classify(sample)
						if err != nil {
							t.Fatal(err)
						}
						if labels[i] != want {
							t.Errorf("par=%d session %d sample %d: private label %d, Model.Classify %d", par, session, i, labels[i], want)
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != parentTranscripts[tc.name] {
					t.Errorf("par=%d: response digest %s, parent produced %s", par, got, parentTranscripts[tc.name])
				}
			}
		})
	}
}
