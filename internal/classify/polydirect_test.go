package classify

import (
	"math"
	"math/big"
	mrand "math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/field/limb"
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
	codec, err := resolveCodec(params, m.Kernel, scaleExp, bound)
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
// an enormous trie. The cubic is past mvpoly.MaxRescaledNodes, so it
// decodes at S^(2p+1) and NewKernelSum's size rule picks its form.
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
			if k.Kind == svm.KernelPolynomial && mvpoly.Rescalable(n, k.Degree) {
				t.Fatalf("a degree-%d polynomial over %d variables is under the rescaled cap", k.Degree, n)
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

// dyadicModel draws a polynomial-kernel model over n = 8 whose encoding at
// 24 fractional bits is exact: support vectors k/2^10 in [−1, 1] (so
// a0·x_s = k/2^13 for a0 = 1/8), multipliers k/2^12 in [−100, 100] and a
// bias k/2^20 in [−1, 1]. The only error left in the protocol's value is
// then the rescaled trie's rounding.
func dyadicModel(k svm.Kernel, numSV int, seed uint64) *svm.Model {
	const n = 8
	rng := mrand.New(mrand.NewPCG(seed, 44))
	dyadic := func(limit float64, bits int) float64 {
		scale := math.Ldexp(1, bits)
		return float64(rng.IntN(int(2*limit*scale)+1))/scale - limit
	}
	m := &svm.Model{Kernel: k, Dim: n, Bias: dyadic(1, 20)}
	for s := 0; s < numSV; s++ {
		sv := make([]float64, n)
		for j := range sv {
			sv[j] = dyadic(1, 10)
		}
		m.SupportVectors = append(m.SupportVectors, sv)
		m.AlphaY = append(m.AlphaY, dyadic(100, 12))
	}
	return m
}

// rangeSamples returns every corner of [−1, 1]^8 and as many samples each
// of whose coordinates is within 1e-3 of ±1 (1 − k·2^−12 for k ≤ 4, so
// they too encode exactly): where |d| is largest.
func rangeSamples(seed uint64) [][]float64 {
	const n = 8
	rng := mrand.New(mrand.NewPCG(seed, 45))
	var out [][]float64
	for c := 0; c < 1<<n; c++ {
		corner := make([]float64, n)
		near := make([]float64, n)
		for j := range corner {
			sign := 1.0
			if c>>j&1 == 1 {
				sign = -1
			}
			corner[j] = sign
			if rng.IntN(2) == 0 {
				sign = -sign
			}
			near[j] = sign * (1 - math.Ldexp(float64(rng.IntN(5)), -12))
		}
		out = append(out, corner, near)
	}
	return out
}

// TestPolyDirectRange is the fixed-point range check of direct-mode
// polynomials at per-degree scales, for the served-shape cubic (b0 = 0,
// 218 support vectors) and a quadratic with b0 ≠ 0. The amplifier is
// pinned at its largest value, 2^AmplifierBits − 1, and the samples sit at
// and next to the corners of the data box, where |d| peaks. The sender's
// OMPE answer is amp·d(t) mod P exactly, so the test takes it from the
// trainer's evaluator (math/big and limb) and decodes it with the client.
// Each of the C(n+p, p) trie nodes is rounded once to half a unit at
// S^(p+1−d) and multiplies a monomial of magnitude ≤ 1, so the decoded
// value is within amp·C(n+p, p)·2^−(fracBits+1) of amp·Model.Decision; a
// wrapped field, or a term at the wrong scale, is off by far more.
func TestPolyDirectRange(t *testing.T) {
	// floatSlack absorbs Model.Decision's own float64 rounding, ~1e-10 at
	// these magnitudes.
	const floatSlack = 1e-9
	cases := []struct {
		name   string
		kernel svm.Kernel
		numSV  int
	}{
		{"cubic-b0-zero", svm.PaperPolynomial(8), 218},
		{"quadratic-b0-half", svm.Polynomial(1.0/8, 0.5, 2), 40},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := dyadicModel(tc.kernel, tc.numSV, uint64(i))
			params := Params{Group: ot.Group512Test()}
			tr, err := NewTrainer(m, params)
			if err != nil {
				t.Fatal(err)
			}
			spec := tr.Spec()
			if spec.FieldBits != 255 || spec.FracBits != 24 {
				t.Fatalf("served on %d bits at %d fractional bits, want 255 and 24", spec.FieldBits, spec.FracBits)
			}
			c, err := NewClient(spec)
			if err != nil {
				t.Fatal(err)
			}
			f := tr.codec.Field()
			amp := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(spec.AmplifierBits)), big.NewInt(1))
			ampF, _ := new(big.Float).SetInt(amp).Float64()
			nodes, _ := new(big.Float).SetInt(mvpoly.KernelSumNodes(m.Dim, m.Kernel.Degree)).Float64()
			bound := ampF * (nodes*math.Ldexp(1, -int(spec.FracBits)-1) + floatSlack)
			worst := 0.0
			for j, sample := range rangeSamples(uint64(i)) {
				z, err := c.EncodeSample(sample)
				if err != nil {
					t.Fatal(err)
				}
				v, err := tr.eval.Eval(z)
				if err != nil {
					t.Fatal(err)
				}
				lz := make([]limb.Element, len(z))
				for k, x := range z {
					if err := lz[k].SetBig(x); err != nil {
						t.Fatal(err)
					}
				}
				var lv limb.Element
				if err := tr.eval.EvalLimb(lz, &lv); err != nil {
					t.Fatal(err)
				}
				if lv.ToBig().Cmp(v) != 0 {
					t.Fatalf("sample %d: limb and math/big evaluations differ", j)
				}
				result := f.Mul(amp, v)
				got, err := c.Value(result)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.Decision(sample)
				if err != nil {
					t.Fatal(err)
				}
				if e := math.Abs(got - ampF*want); e > bound {
					t.Fatalf("sample %d %v: decoded %g, amp·Decision %g, off by %g > %g", j, sample, got, ampF*want, e, bound)
				} else if e > worst {
					worst = e
				}
				label, err := c.Interpret(result)
				if err != nil {
					t.Fatal(err)
				}
				if wantLabel, _ := m.Classify(sample); label != wantLabel {
					t.Fatalf("sample %d: label %d, Model.Classify %d (d = %g)", j, label, wantLabel, want)
				}
			}
			t.Logf("worst error %.3g of bound %.3g (amp·C(n+p, p)·2^−(fracBits+1))", worst, bound)
		})
	}
}

// TestFieldSizingGrowsWithDegree: at per-degree scales the bit budget the
// field is sized from grows by fracBits per degree, while every budget of
// this model family still lands on 2^255−19.
func TestFieldSizingGrowsWithDegree(t *testing.T) {
	params := Params{Group: ot.Group512Test(), FracBits: 24}.withDefaults()
	prev := 0
	for p := 1; p <= 4; p++ {
		m := dyadicModel(svm.Polynomial(1.0/8, 0, p), 20, 9)
		bound, err := decisionBound(m, params.TaylorTerms)
		if err != nil {
			t.Fatal(err)
		}
		_, scaleExp, _, err := protocolShape(m.Kernel, m.Dim, params)
		if err != nil {
			t.Fatal(err)
		}
		budget, err := fieldBudget(params, params.FracBits, scaleExp, bound)
		if err != nil {
			t.Fatal(err)
		}
		if budget <= prev {
			t.Fatalf("degree %d: budget %d bits, degree %d had %d", p, budget, p-1, prev)
		}
		prev = budget
		tr, err := NewTrainer(m, params)
		if err != nil {
			t.Fatal(err)
		}
		if bits := tr.Spec().FieldBits; bits != 255 {
			t.Fatalf("degree %d (budget %d bits) on a %d-bit field, want 255", p, budget, bits)
		}
	}
}
