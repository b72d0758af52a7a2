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
// pinning the 2p+1 form. Rewriting how the trainer computes its decision
// function, or how the OT extension is wired, must never change which
// bytes travel.
var parentTranscripts = map[string]string{
	"cubic/limb255":        "735f51c41c0c877949200d739e562f7c841a68b39a214e55c19f2ae7b3d8b1b4",
	"quadratic/limb16":     "2ba498ce494d61b5528807f7a69b7ea399e4490c14c360fcc1d9e2d6275d05e5",
	"sigmoid/big":          "5defe4f63f43e64d3d6ce19cf9ea4bae8920c29f2b0335af9c67e6a67ba0b4d5",
	"linear/limb16":        "0026dd4495f38b6928caafdb024c99571a82e6918e13a72332966699a64841d2",
	"cubic-kernelform/big": "54d71d4e8e0a0fb1291b78b0dec7d8eb084d1b7dc34e590431b603d8181fb33e",
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
