package classify

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/ot"
	"repro/internal/svm"
)

// trainDiabetes trains a polynomial-kernel model on the synthetic diabetes
// set; trainSize 0 keeps the dataset's full size (the served model).
func trainDiabetes(tb testing.TB, k svm.Kernel, trainSize int, seed uint64) *svm.Model {
	tb.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		tb.Fatal(err)
	}
	if trainSize > 0 {
		spec.TrainSize, spec.TestSize = trainSize, 10
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: k, C: spec.PolyC})
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

// encodeFor encodes a model's direct-mode decision function into the
// field NewTrainer would pick for params.
func encodeFor(tb testing.TB, m *svm.Model, params Params) *polyDirect {
	tb.Helper()
	params = params.withDefaults()
	bound, err := decisionBound(m, params.TaylorTerms)
	if err != nil {
		tb.Fatal(err)
	}
	_, scaleExp, _, err := protocolShape(m.Kernel, m.Dim, params)
	if err != nil {
		tb.Fatal(err)
	}
	codec, err := resolveCodec(params, scaleExp, bound)
	if err != nil {
		tb.Fatal(err)
	}
	pd, err := encodePolyDirect(codec, m)
	if err != nil {
		tb.Fatal(err)
	}
	return pd
}

// bothForms builds the trie and the kernel-form evaluator of one model.
func bothForms(tb testing.TB, pd *polyDirect) (trie, kernelForm *evaluator) {
	tb.Helper()
	trie, err := pd.trieEvaluator()
	if err != nil {
		tb.Fatal(err)
	}
	kernelForm, err = pd.kernelFormEvaluator()
	if err != nil {
		tb.Fatal(err)
	}
	return trie, kernelForm
}

func toLimb(tb testing.TB, z field.Vec) []limb.Element {
	tb.Helper()
	out, err := limbVec(z)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

var polyDirectCases = []struct {
	name   string
	kernel svm.Kernel
	params Params
}{
	{"cubic/big521", svm.PaperPolynomial(8), Params{Group: ot.Group512Test()}},
	{"cubic/limb", svm.PaperPolynomial(8), Params{Group: ot.Group512Test(), FieldBackend: field.BackendLimb, FracBits: 16}},
	{"quadratic-b0/limb", svm.Polynomial(1.0/8, 1, 2), Params{Group: ot.Group512Test(), FieldBackend: field.BackendLimb, FracBits: 16}},
}

// TestPolyDirectFormsAgree checks, on the models the transcript test
// serves, that the size rule picks the trie and that the trie and the
// kernel form give the same residue at uniform full-field points.
func TestPolyDirectFormsAgree(t *testing.T) {
	for _, tc := range polyDirectCases {
		t.Run(tc.name, func(t *testing.T) {
			model := trainDiabetes(t, tc.kernel, 60, 7)
			pd := encodeFor(t, model, tc.params)
			if !useKernelSum(pd.n, pd.p, len(pd.alphaY)) {
				t.Fatalf("size rule keeps the kernel form for n=%d p=%d |S|=%d", pd.n, pd.p, len(pd.alphaY))
			}
			trie, kernelForm := bothForms(t, pd)
			for trial := 0; trial < 20; trial++ {
				z, err := pd.f.RandVec(rand.Reader, pd.n)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kernelForm.Eval(z)
				if err != nil {
					t.Fatal(err)
				}
				got, err := trie.Eval(z)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("trie %v, kernel form %v", got, want)
				}
				if !pd.f.SupportsLimb() {
					continue
				}
				var lgot, lwant limb.Element
				lz := toLimb(t, z)
				if err := trie.EvalLimb(lz, &lgot); err != nil {
					t.Fatal(err)
				}
				if err := kernelForm.EvalLimb(lz, &lwant); err != nil {
					t.Fatal(err)
				}
				if !lgot.Equal(&lwant) || lgot.ToBig().Cmp(want) != 0 {
					t.Fatalf("limb trie %v, limb kernel form %v, big %v", lgot.ToBig(), lwant.ToBig(), want)
				}
			}
		})
	}
}

// maxWideTrainerAlloc bounds what NewTrainer may allocate for the n = 500
// cubic model below. Its kernel form is 40·500 encoded coefficients, a
// few MB; the trie would have C(503, 3) ≈ 2.1·10⁷ nodes, gigabytes.
const maxWideTrainerAlloc = 32 << 20

// TestPolyDirectSizeRuleKeepsKernelForm: a madelon-width cubic model keeps
// the kernel form, so no model shape makes NewTrainer build an enormous
// trie.
func TestPolyDirectSizeRuleKeepsKernelForm(t *testing.T) {
	const n, numSV = 500, 40
	rng := mrand.New(mrand.NewPCG(500, 3))
	model := &svm.Model{Kernel: svm.PaperPolynomial(n), Dim: n, Bias: 0.1}
	for s := 0; s < numSV; s++ {
		sv := make([]float64, n)
		for j := range sv {
			sv[j] = rng.Float64()*2 - 1
		}
		model.SupportVectors = append(model.SupportVectors, sv)
		model.AlphaY = append(model.AlphaY, rng.Float64()*2-1)
	}
	if useKernelSum(n, 3, numSV) {
		t.Fatal("size rule expands a cubic over 500 variables")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := NewTrainer(model, Params{Group: ot.Group512Test()}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxWideTrainerAlloc {
		t.Fatalf("NewTrainer allocated %d bytes, bound %d", alloc, maxWideTrainerAlloc)
	}
}

// BenchmarkPolyDirectEval times one decision-function evaluation at a
// uniform field point on the served diabetes model (218 support vectors,
// n = 8, p = 3), in both forms: on 2^521−1 as the big-backend trainer
// runs it and on 2^255−19 limbs at FracBits 16.
func BenchmarkPolyDirectEval(b *testing.B) {
	model := trainDiabetes(b, svm.PaperPolynomial(8), 0, 1)
	if len(model.SupportVectors) != 218 {
		b.Fatalf("served model has %d support vectors, want 218", len(model.SupportVectors))
	}
	configs := []struct {
		name   string
		params Params
	}{
		{"big521", Params{Group: ot.Group512Test()}},
		{"limb", Params{Group: ot.Group512Test(), FieldBackend: field.BackendLimb, FracBits: 16}},
	}
	for _, cfg := range configs {
		pd := encodeFor(b, model, cfg.params)
		trie, kernelForm := bothForms(b, pd)
		z, err := pd.f.RandVec(rand.Reader, pd.n)
		if err != nil {
			b.Fatal(err)
		}
		var lz []limb.Element
		if pd.f.SupportsLimb() {
			lz = toLimb(b, z)
		}
		for _, form := range []struct {
			name string
			ev   *evaluator
		}{{"kernel", kernelForm}, {"trie", trie}} {
			b.Run(fmt.Sprintf("%s/%s", form.name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				if cfg.params.FieldBackend == field.BackendLimb {
					var out limb.Element
					for i := 0; i < b.N; i++ {
						if err := form.ev.EvalLimb(lz, &out); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				for i := 0; i < b.N; i++ {
					out, err := form.ev.Eval(z)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = out
				}
			})
		}
	}
}

var benchSink *big.Int
