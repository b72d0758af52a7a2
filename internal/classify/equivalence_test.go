package classify_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"testing"

	"repro/internal/classify"
	"repro/internal/mvpoly"
	"repro/internal/svm"
)

// parentTranscripts pins the SHA-256 over every trainer response of two
// fast sessions (one batch of four samples each) under the deterministic
// rngs below. They were re-recorded when the IKNP base phase became one
// Naor–Pinkas batch: the client now draws one constraint seed and one r
// for all κ base transfers instead of κ of each, so its deterministic rng
// reaches every later draw (the batch's masks, the second session's
// seeds) at another position and every response differs. The two
// rescaled polynomials (cubic/limb255, quadratic/limb16) were re-recorded
// once more when direct-mode polynomials moved to per-degree scales, and
// the kernel-form cubic moved to n = 60, past the rescaled cap, to keep
// pinning the 2p+1 form. rbf/limb16 was recorded while RBF still had its
// own limb evaluator; ompe's math/big bridge, which replaced it, must
// reproduce it. All six were re-recorded when x25519 became the only OT
// group: each is the digest the same test produced at 8bb7231 with its
// params set to ot.X25519(). All six were re-recorded once more when the
// extended k-of-n became a random-OT tree with once-sent messages: the
// response no longer carries the tree keys' ciphertext pairs, each
// evaluation travels once instead of once per instance, and the trainer
// draws one 16-byte key per evaluation instead of 2·k·⌈log₂ M⌉ tree keys,
// so every response has another layout and the trainer's rng reaches the
// second session at another position. Every label still matches the
// plaintext model. All six were re-recorded once more when the base
// phase became a random OT: the client's seed pairs are the batch's slot
// keys, keyed at cofactor-cleared points, so it draws no seeds and every
// seed, column and response differs, and a scalar is one 64-byte read,
// which moves every later draw in both rng streams. Every label still
// matches the plaintext model. All six were re-recorded once more when
// requests came to carry a 16-byte point seed instead of the points and
// instance 0's path digests became the message keys: every request and
// response has another layout, and the client's rng draws a seed first
// and no points, which moves every later draw. Every label still
// matches the plaintext model. Rewriting how the trainer computes its
// decision function, or how the OT extension is wired, must never change
// which bytes travel.
var parentTranscripts = map[string]string{
	"cubic/limb255":        "59b41525e6148ccea0f5ba6961fe3ba1d71966785e96e9142649e2e56848534b",
	"quadratic/limb16":     "f1176eaea51211d9be49e988df26f418d2e4fcda14f7d0f5ced68a4f2e37f697",
	"sigmoid/big":          "5b6c6d0d8aae173b0588ebdf8b557fa9bbe50ae2ef59b6b6610c314fe447f032",
	"linear/limb16":        "8b08c1ca97cccef7ec8802809acc6ec54e585b885be83e429ce1f8d4b6c6e33c",
	"rbf/limb16":           "175f1f7ead45bc9665b9f5144a852fbea155979a256a7e9e36cd2e9bd78a66ed",
	"cubic-kernelform/big": "02fe97482b0960902d78cf931fb315228c8da557c45d3d59ad13baa28ee0db93",
}

// sigmoidTerms is the Taylor truncation of the sigmoid case.
const sigmoidTerms = 3

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
		dataset string // trainSmallOn's dataset; diabetes when empty
		kernel  svm.Kernel
		c       float64
		mutate  func(*classify.Params)
		// fieldBits, when set, is the field the trainer must pick.
		fieldBits int
		// decision, when set, is the plaintext decision value the private
		// label must agree with (samples within 1e-6 of zero are skipped);
		// otherwise the label must equal Model.Classify.
		decision func(*testing.T, *svm.Model, []float64) float64
	}{
		// The paper's cubic (b0 = 0): per-degree scales decode it at
		// S^(p+1), so the protocol asks for ~200 bits and runs on limb.
		{name: "cubic/limb255", kernel: svm.PaperPolynomial(8), c: 100, fieldBits: 255},
		// A degree-2 model with b0 ≠ 0 at 16 fractional bits.
		{name: "quadratic/limb16", kernel: svm.Polynomial(1.0/8, 1, 2), c: 100, mutate: func(p *classify.Params) {
			p.FracBits = 16
		}},
		// The Taylor-truncated sigmoid: odd powers 1, 3, 5 of a0·x_s·t + c0.
		{name: "sigmoid/big", kernel: svm.Sigmoid(0.125, 0), c: 10,
			mutate: func(p *classify.Params) { p.TaylorTerms = sigmoidTerms },
			decision: func(t *testing.T, m *svm.Model, sample []float64) float64 {
				return truncatedSigmoidDecision(t, m, sample, sigmoidTerms)
			}},
		{name: "linear/limb16", kernel: svm.Linear(), c: 100, mutate: func(p *classify.Params) {
			p.FracBits = 16
		}},
		// The Taylor-truncated RBF at the default three terms: the one
		// kernel outside mvpoly.KernelSum, so on limb it crosses ompe's
		// math/big bridge.
		{name: "rbf/limb16", kernel: svm.RBF(0.05), c: 100, fieldBits: 255,
			mutate: func(p *classify.Params) { p.FracBits = 16 },
			decision: func(t *testing.T, m *svm.Model, sample []float64) float64 {
				return truncatedRBFDecision(t, m, sample, 3)
			}},
		// The paper's cubic at n = 60: C(63, 3) = 39,711 monomials are past
		// mvpoly.MaxRescaledNodes, so it decodes at S^(2p+1) on 2^521−1,
		// and with |S|·(n+p) fewer than that NewKernelSum keeps the
		// kernel form.
		{name: "cubic-kernelform/big", dataset: "splice", kernel: svm.PaperPolynomial(60), c: 100, fieldBits: 521,
			decision: func(t *testing.T, m *svm.Model, sample []float64) float64 {
				d, err := m.Decision(sample)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.dataset
			if ds == "" {
				ds = "diabetes"
			}
			model, test := trainSmallOn(t, ds, tc.kernel, tc.c)
			if tc.name == "cubic-kernelform/big" {
				n, p := model.Dim, model.Kernel.Degree
				nodes := mvpoly.KernelSumNodes(n, p)
				if mvpoly.Rescalable(n, p) || nodes.Cmp(big.NewInt(int64(len(model.AlphaY)*(n+p)))) <= 0 {
					t.Fatalf("|S| = %d at n = %d, p = %d does not keep the kernel form", len(model.AlphaY), n, p)
				}
			}
			checked := 0
			params := fastParams()
			if tc.mutate != nil {
				tc.mutate(&params)
			}
			trainer, err := classify.NewTrainer(model, params)
			if err != nil {
				t.Fatal(err)
			}
			if bits := trainer.Spec().FieldBits; tc.fieldBits != 0 && bits != tc.fieldBits {
				t.Fatalf("model on a %d-bit field, want %d", bits, tc.fieldBits)
			}
			spec := trainer.Spec()
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
					var want int
					if tc.decision == nil {
						if want, err = model.Classify(sample); err != nil {
							t.Fatal(err)
						}
					} else {
						d := tc.decision(t, model, sample)
						if math.Abs(d) < 1e-6 {
							continue
						}
						want = 1
						if d < 0 {
							want = -1
						}
					}
					checked++
					if labels[i] != want {
						t.Errorf("session %d sample %d: private label %d, Model.Classify %d", session, i, labels[i], want)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != parentTranscripts[tc.name] {
				t.Errorf("response digest %s, parent produced %s", got, parentTranscripts[tc.name])
			}
			if checked == 0 {
				t.Fatal("no label checked")
			}
		})
	}
}
