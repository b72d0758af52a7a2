package svm_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/svm"
)

// separable2D builds a linearly separable 2-D set around w·x + b = 0.
func separable2D(n int, seed uint64, margin float64) ([][]float64, []int, []float64, float64) {
	rng := rand.New(rand.NewPCG(seed, 17))
	w := []float64{0.8, -0.6}
	b := 0.1
	var x [][]float64
	var y []int
	for len(x) < n {
		p := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		s := w[0]*p[0] + w[1]*p[1] + b
		if math.Abs(s) < margin {
			continue
		}
		x = append(x, p)
		if s > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	return x, y, w, b
}

func TestTrainSeparableLinear(t *testing.T) {
	x, y, _, _ := separable2D(200, 3, 0.1)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := model.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Fatalf("training accuracy %.3f on separable data", acc)
	}
}

func TestTrainRecoversDirection(t *testing.T) {
	x, y, wTrue, _ := separable2D(400, 5, 0.15)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	w, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	cos := (w[0]*wTrue[0] + w[1]*wTrue[1]) /
		(math.Hypot(w[0], w[1]) * math.Hypot(wTrue[0], wTrue[1]))
	if cos < 0.98 {
		t.Fatalf("learned direction cos=%.3f from true normal", cos)
	}
}

func TestTrainValidation(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}}
	if _, err := svm.Train(x[:1], []int{1}, svm.Config{}); err == nil {
		t.Fatal("single sample should fail")
	}
	if _, err := svm.Train(x, []int{1}, svm.Config{}); err == nil {
		t.Fatal("label count mismatch should fail")
	}
	if _, err := svm.Train(x, []int{1, 2}, svm.Config{}); err == nil {
		t.Fatal("non-±1 label should fail")
	}
	if _, err := svm.Train(x, []int{1, 1}, svm.Config{}); err == nil {
		t.Fatal("single-class set should fail")
	}
	if _, err := svm.Train([][]float64{{1, 2}, {3}}, []int{1, -1}, svm.Config{}); err == nil {
		t.Fatal("ragged rows should fail")
	}
	if _, err := svm.Train(x, []int{1, -1}, svm.Config{C: -1}); err == nil {
		t.Fatal("negative C should fail")
	}
}

func TestTrainXORWithPolynomialKernel(t *testing.T) {
	// XOR on {±1}²: unlearnable linearly, exactly representable by the
	// inhomogeneous quadratic kernel.
	x := [][]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	y := []int{1, -1, -1, 1}
	// Repeat to give the optimizer more than one point per corner.
	var xs [][]float64
	var ys []int
	for r := 0; r < 10; r++ {
		xs = append(xs, x...)
		ys = append(ys, y...)
	}
	linModel, err := svm.Train(xs, ys, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	linAcc, _ := linModel.Accuracy(xs, ys)
	polyModel, err := svm.Train(xs, ys, svm.Config{Kernel: svm.Polynomial(1, 1, 2), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	polyAcc, _ := polyModel.Accuracy(xs, ys)
	if polyAcc != 1 {
		t.Fatalf("poly kernel accuracy %.2f on XOR, want 1.0", polyAcc)
	}
	if linAcc > 0.75 {
		t.Fatalf("linear kernel accuracy %.2f on XOR, should be <= 0.75", linAcc)
	}
}

func TestTrainRBF(t *testing.T) {
	// A disc: +1 inside radius 0.5, −1 outside — RBF territory.
	rng := rand.New(rand.NewPCG(7, 7))
	var x [][]float64
	var y []int
	for len(x) < 300 {
		p := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		r := math.Hypot(p[0], p[1])
		if math.Abs(r-0.5) < 0.08 {
			continue
		}
		x = append(x, p)
		if r < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.RBF(2), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := model.Accuracy(x, y)
	if acc < 0.95 {
		t.Fatalf("RBF accuracy %.3f on disc data", acc)
	}
}

func TestTrainSigmoid(t *testing.T) {
	x, y, _, _ := separable2D(150, 11, 0.15)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Sigmoid(0.5, 0), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := model.Accuracy(x, y)
	if acc < 0.9 {
		t.Fatalf("sigmoid accuracy %.3f on separable data", acc)
	}
}

func TestGramLimitFallback(t *testing.T) {
	// Force on-the-fly kernel evaluation and check it trains identically.
	x, y, _, _ := separable2D(80, 13, 0.1)
	withGram, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	withoutGram, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 1, GramLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	accA, _ := withGram.Accuracy(x, y)
	accB, _ := withoutGram.Accuracy(x, y)
	if math.Abs(accA-accB) > 0.05 {
		t.Fatalf("gram cache changed the solution: %.3f vs %.3f", accA, accB)
	}
}

func TestKernelValues(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{-1, 0.5, 2}
	dot := -1 + 1 + 6.0

	lin, err := svm.Linear().Eval(x, y)
	if err != nil || lin != dot {
		t.Fatalf("linear = %v, %v", lin, err)
	}
	poly, err := svm.Polynomial(0.5, 1, 2).Eval(x, y)
	if err != nil || math.Abs(poly-math.Pow(0.5*dot+1, 2)) > 1e-12 {
		t.Fatalf("poly = %v, %v", poly, err)
	}
	d2 := 4 + 2.25 + 1.0
	rbf, err := svm.RBF(0.3).Eval(x, y)
	if err != nil || math.Abs(rbf-math.Exp(-0.3*d2)) > 1e-12 {
		t.Fatalf("rbf = %v, %v", rbf, err)
	}
	sig, err := svm.Sigmoid(0.1, 0.2).Eval(x, y)
	if err != nil || math.Abs(sig-math.Tanh(0.1*dot+0.2)) > 1e-12 {
		t.Fatalf("sigmoid = %v, %v", sig, err)
	}
	if _, err := svm.Linear().Eval(x, y[:2]); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestKernelSymmetry(t *testing.T) {
	kernels := []svm.Kernel{
		svm.Linear(), svm.Polynomial(0.25, 0.5, 3), svm.RBF(1.5), svm.Sigmoid(0.2, -0.1),
	}
	rng := rand.New(rand.NewPCG(19, 23))
	check := func(int) bool {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		for _, k := range kernels {
			a, err := k.Eval(x, y)
			if err != nil {
				return false
			}
			b, err := k.Eval(y, x)
			if err != nil {
				return false
			}
			if math.Abs(a-b) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKernelValidate(t *testing.T) {
	bad := []svm.Kernel{
		{Kind: svm.KernelPolynomial, A0: 1, Degree: 0},
		{Kind: svm.KernelPolynomial, A0: 0, Degree: 2},
		{Kind: svm.KernelRBF, Gamma: 0},
		{Kind: svm.KernelSigmoid, A0: 0},
		{Kind: svm.KernelKind(99)},
	}
	for i, k := range bad {
		if err := k.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if svm.PaperPolynomial(10).A0 != 0.1 {
		t.Fatal("paper kernel a0 != 1/n")
	}
}

func TestModelValidate(t *testing.T) {
	m := &svm.Model{Kernel: svm.Linear(), Dim: 2}
	if err := m.Validate(); err == nil {
		t.Fatal("empty model should fail")
	}
	m = &svm.Model{
		Kernel:         svm.Linear(),
		SupportVectors: [][]float64{{1, 2}},
		AlphaY:         []float64{1, 2},
		Dim:            2,
	}
	if err := m.Validate(); err == nil {
		t.Fatal("multiplier count mismatch should fail")
	}
	m.AlphaY = []float64{1}
	m.SupportVectors = [][]float64{{1}}
	if err := m.Validate(); err == nil {
		t.Fatal("support vector dim mismatch should fail")
	}
}

func TestLinearWeightsEquivalence(t *testing.T) {
	x, y, _, _ := separable2D(120, 29, 0.1)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		s := x[trial]
		viaKernel, err := model.Decision(s)
		if err != nil {
			t.Fatal(err)
		}
		viaWeights := model.Bias
		for j := range w {
			viaWeights += w[j] * s[j]
		}
		if math.Abs(viaKernel-viaWeights) > 1e-9 {
			t.Fatalf("decision mismatch: kernel %v vs weights %v", viaKernel, viaWeights)
		}
	}
	polyModel, err := svm.Train(x, y, svm.Config{Kernel: svm.Polynomial(1, 0, 3), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := polyModel.LinearWeights(); err == nil {
		t.Fatal("LinearWeights must fail on nonlinear models")
	}
}

func TestClassifyBoundaryConvention(t *testing.T) {
	x, y, _, _ := separable2D(60, 31, 0.1)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Classify([]float64{0}); err == nil {
		t.Fatal("wrong dim should fail")
	}
	if _, err := model.Accuracy(x, y[:3]); err == nil {
		t.Fatal("mismatched accuracy inputs should fail")
	}
	if _, err := model.Accuracy(nil, nil); err == nil {
		t.Fatal("empty accuracy inputs should fail")
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{0, 10, -5}, {4, 20, -5}, {2, 15, -5}}
	s, err := svm.FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([][]float64, len(x))
	for i, row := range x {
		if scaled[i], err = s.Apply(row); err != nil {
			t.Fatal(err)
		}
	}
	if scaled[0][0] != -1 || scaled[1][0] != 1 || scaled[2][0] != 0 {
		t.Fatalf("feature 0 scaling wrong: %v", scaled)
	}
	// Constant features map to 0.
	for i := range scaled {
		if scaled[i][2] != 0 {
			t.Fatalf("constant feature should map to 0, got %v", scaled[i][2])
		}
	}
	// Out-of-range values extrapolate.
	out, err := s.Apply([]float64{8, 10, -5})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("extrapolation = %v, want 3", out[0])
	}
	if _, err := s.Apply([]float64{1}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
	if _, err := svm.FitScaler(nil); err == nil {
		t.Fatal("empty fit should fail")
	}
}

func TestMaxIterTerminates(t *testing.T) {
	x, y, _, _ := separable2D(100, 37, 0.01)
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 1e6, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if model.NumSupportVectors() == 0 {
		t.Fatal("no support vectors after iteration cap")
	}
}
