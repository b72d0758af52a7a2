package classify

import (
	mrand "math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/mvpoly"
	"repro/internal/ot"
	"repro/internal/svm"
)

// sumFor builds a polynomial or sigmoid model's decision function over
// the field NewTrainer would pick for params.
func sumFor(tb testing.TB, m *svm.Model, params Params) *mvpoly.KernelSum {
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
	var sum *mvpoly.KernelSum
	if m.Kernel.Kind == svm.KernelSigmoid {
		sum, err = sigmoidSum(codec, m, params.TaylorTerms)
	} else {
		sum, err = polyDirectSum(codec, m)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return sum
}

// maxWideTrainerAlloc bounds what NewTrainer may allocate for the n = 500
// models below. Their kernel form is 40·500 encoded coefficients, a few
// MB; the cubic's trie would have C(503, 3) ≈ 2.1·10⁷ nodes, gigabytes,
// and the degree-5 sigmoid's C(505, 5) ≈ 2.7·10¹¹.
const maxWideTrainerAlloc = 32 << 20

// TestPolyDirectSizeRuleKeepsKernelForm: madelon-width cubic and sigmoid
// models keep the kernel form, so no model shape makes NewTrainer build
// an enormous trie.
func TestPolyDirectSizeRuleKeepsKernelForm(t *testing.T) {
	const n, numSV = 500, 40
	for _, k := range []svm.Kernel{svm.PaperPolynomial(n), svm.Sigmoid(1.0/n, 0)} {
		t.Run(k.Kind.String(), func(t *testing.T) {
			rng := mrand.New(mrand.NewPCG(500, 3))
			model := &svm.Model{Kernel: k, Dim: n, Bias: 0.1}
			for s := 0; s < numSV; s++ {
				sv := make([]float64, n)
				for j := range sv {
					sv[j] = rng.Float64()*2 - 1
				}
				model.SupportVectors = append(model.SupportVectors, sv)
				model.AlphaY = append(model.AlphaY, rng.Float64()*2-1)
			}
			params := Params{Group: ot.Group512Test()}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := NewTrainer(model, params); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxWideTrainerAlloc {
				t.Fatalf("NewTrainer allocated %d bytes, bound %d", alloc, maxWideTrainerAlloc)
			}
			if sumFor(t, model, params).Expanded() {
				t.Fatalf("size rule expands a %v model over %d variables", k.Kind, n)
			}
		})
	}
}
