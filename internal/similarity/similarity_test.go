package similarity_test

import (
	"crypto/rand"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// TestPrivateMatchesPlaintext checks that the three-round private protocol
// reproduces the clear-text metric to fixed-point precision.
func TestPrivateMatchesPlaintext(t *testing.T) {
	cases := []struct {
		name   string
		wA, wB []float64
		bA, bB float64
	}{
		{"2d-distinct", []float64{1, 0.5}, []float64{0.2, 1.1}, 0.1, -0.3},
		{"2d-nearly-parallel", []float64{1, 1}, []float64{1.01, 1}, 0.2, 0.1},
		{"3d", []float64{0.7, -0.4, 0.2}, []float64{-0.1, 0.9, 0.3}, 0.05, -0.12},
		{"5d", []float64{0.3, -0.2, 0.5, 0.1, -0.4}, []float64{0.1, 0.4, -0.3, 0.2, 0.2}, 0, 0.08},
	}
	metric := similarity.DefaultMetric()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := similarity.EvaluateLinear(tc.wA, tc.bA, tc.wB, tc.bB, metric)
			if err != nil {
				t.Fatal(err)
			}
			got, err := similarity.EvaluatePrivate(tc.wA, tc.bA, tc.wB, tc.bB, similarity.Params{}, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.TSquared-want.TSquared) > 1e-4*(1+math.Abs(want.TSquared)) {
				t.Fatalf("T²: private %g, plaintext %g", got.TSquared, want.TSquared)
			}
			if math.Abs(got.T-want.T) > 1e-3*(1+want.T) {
				t.Fatalf("T: private %g, plaintext %g", got.T, want.T)
			}
		})
	}
}

// TestScaleInvariance: (c·w, c·b) is the same hyperplane as (w, b), so
// the private metric must not move with c. Both parties evaluate on unit
// normals; on the raw normals, c3 = ¼/(|wA|²·|wB|²) is encoded at S and
// rounds to 0 once |wA|²·|wB|² > S/2, which at c = 100 put T² off by a
// relative 0.28 with no error raised. The kernel rows scale model A's αy
// and bias, the same decision boundary with its feature-space normal
// scaled by c, and compare the private T² with its value at c = 1. With
// c3 encoded at an exponent picked from K(wA,wA), c = 1e-3 moved it by a
// relative 1.9e-6; on unit feature-space normals it does not move.
func TestScaleInvariance(t *testing.T) {
	wA, bA := []float64{0.7, -0.4, 0.2}, 0.05
	wB, bB := []float64{-0.1, 0.9, 0.3}, -0.12
	scaled := func(w []float64, c float64) []float64 {
		out := make([]float64, len(w))
		for j, x := range w {
			out[j] = c * x
		}
		return out
	}
	for _, c := range []float64{1e-3, 1, 1e2, 1e3} {
		t.Run(fmt.Sprintf("c=%g", c), func(t *testing.T) {
			sA, sB := scaled(wA, c), scaled(wB, c)
			want, err := similarity.EvaluateLinear(sA, c*bA, sB, c*bB, similarity.DefaultMetric())
			if err != nil {
				t.Fatal(err)
			}
			got, err := similarity.EvaluatePrivate(sA, c*bA, sB, c*bB, similarity.Params{}, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got.TSquared-want.TSquared) / want.TSquared; rel > 1e-6 {
				t.Fatalf("T² private %g, plaintext %g: relative error %.3g", got.TSquared, want.TSquared, rel)
			}
		})
	}

	modelA, modelB := kernelModels(t)
	base, err := similarity.EvaluatePrivateKernel(modelA, modelB, similarity.Params{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e-3, 1e2, 1e3} {
		t.Run(fmt.Sprintf("kernel/c=%g", c), func(t *testing.T) {
			sA := *modelA
			sA.AlphaY, sA.Bias = scaled(modelA.AlphaY, c), c*modelA.Bias
			got, err := similarity.EvaluatePrivateKernel(&sA, modelB, similarity.Params{}, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got.TSquared-base.TSquared) / base.TSquared; rel > 1e-6 {
				t.Fatalf("T² at c = %g: %g, at c = 1: %g, relative error %.3g", c, got.TSquared, base.TSquared, rel)
			}
		})
	}
}

// TestLinearAreaRange: the field linearAreaBits sizes holds the area value
// at the edge of what it admits, in the style of classify's
// TestPolyDirectRange. At n = 8 and Alice's precision (fb = 24) on a
// metric with θ₀ near π/2 (sin²θ₀ ≈ 1), the test bisects for the largest
// L₀ that keeps 255 bits. The two hyperplanes have orthogonal normals
// (sin²θ = 1) and each cuts off a corner of the box, so their centroids
// sit near corners that differ in 7 of 8 coordinates: L² ≈ 27.9 of the
// box's n(β−α)² = 32, and T² is within a factor 1.2 of the bound B. The
// private result must decode within 1e-6 of EvaluateLinear; sized without
// the sign bit, the field wraps it.
func TestLinearAreaRange(t *testing.T) {
	const n, fb = 8, similarity.LinearFracBits
	bits := func(m similarity.Metric, fb uint) int {
		t.Helper()
		need, err := similarity.LinearAreaBits(n, m, fb)
		if err != nil {
			t.Fatal(err)
		}
		return need
	}
	def := similarity.DefaultMetric()
	metric := similarity.Metric{Alpha: -1, Beta: 1, Theta0: math.Pi/2 - 1e-3}
	lo, hi := def.L0, 1e4
	for _, tc := range []struct {
		l0   float64
		fits bool
	}{{lo, true}, {hi, false}} {
		metric.L0 = tc.l0
		if fits := bits(metric, fb) <= 255; fits != tc.fits {
			t.Fatalf("L0 = %g: fits 255 bits %v, want %v", tc.l0, fits, tc.fits)
		}
	}
	for range 60 {
		metric.L0 = (lo + hi) / 2
		if bits(metric, fb) <= 255 {
			lo = metric.L0
		} else {
			hi = metric.L0
		}
	}
	metric.L0 = lo

	// Σx = n − cut cuts off the corner (1, …, 1); wB·x = 2(n−1) − cut with
	// wB = (−1, …, −1, n−1) cuts off (−1, …, −1, 1); wA·wB = 0.
	const cut = 1.0 / 64
	wA, wB := make([]float64, n), make([]float64, n)
	for j := range wA {
		wA[j], wB[j] = 1, -1
	}
	wB[n-1] = n - 1
	bA, bB := -(n - cut), -(2*(n-1) - cut)
	want, err := similarity.EvaluateLinear(wA, bA, wB, bB, metric)
	if err != nil {
		t.Fatal(err)
	}
	if want.CosTheta != 0 || want.L*want.L < 27 {
		t.Fatalf("cos θ = %g, L² = %g: want orthogonal normals and L² > 27", want.CosTheta, want.L*want.L)
	}
	alice, err := similarity.NewAlice(wA, bA, similarity.Params{Metric: metric}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Spec().FieldBits != 255 {
		t.Fatalf("L0 = %g served on %d bits, want 255", metric.L0, alice.Spec().FieldBits)
	}
	bob, err := similarity.NewBob(alice.Spec(), wB, bB)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		t.Fatal(err)
	}
	got := runRounds(t, alice, bob, similarity.RoundCentroid, similarity.RoundNormal, similarity.RoundArea)
	if rel := math.Abs(got.TSquared-want.TSquared) / want.TSquared; rel > 1e-6 {
		t.Fatalf("L0 = %g: T² private %g, plaintext %g, relative error %.3g", metric.L0, got.TSquared, want.TSquared, rel)
	}
	b := 0.5 * (math.Pow(n*4, 2) + math.Pow(metric.L0, 4))
	t.Logf("L0 = %.6g: T² = %.6g of B = %.6g; T²·S⁹ takes %.2f of the 254 bits below p/2",
		metric.L0, want.TSquared, b, math.Log2(want.TSquared)+9*fb)
}

// TestIdenticalModelsHitFloor checks the degenerate case the regularizers
// exist for: identical models yield the minimum area ½·L0²·sinθ0, not 0.
func TestIdenticalModelsHitFloor(t *testing.T) {
	metric := similarity.DefaultMetric()
	w := []float64{0.8, -0.6}
	res, err := similarity.EvaluateLinear(w, 0.1, w, 0.1, metric)
	if err != nil {
		t.Fatal(err)
	}
	floor := 0.5 * metric.L0 * metric.L0 * math.Sin(metric.Theta0)
	if math.Abs(res.T-floor) > 1e-9 {
		t.Fatalf("identical models: T=%g, want floor %g", res.T, floor)
	}
	priv, err := similarity.EvaluatePrivate(w, 0.1, w, 0.1, similarity.Params{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(priv.T-floor) > 1e-4 {
		t.Fatalf("identical models private: T=%g, want floor %g", priv.T, floor)
	}
}

// TestKernelPrivateMatchesPlaintext checks the kernelized three-round
// protocol against the clear-text kernel metric.
func TestKernelPrivateMatchesPlaintext(t *testing.T) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize = 50
	spec.TestSize = 10
	trainA, _, err := dataset.Generate(spec, dataset.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	trainB, _, err := dataset.Generate(spec, dataset.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	k := svm.PaperPolynomial(spec.Dim)
	modelA, err := svm.Train(trainA.X, trainA.Y, svm.Config{Kernel: k, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	modelB, err := svm.Train(trainB.X, trainB.Y, svm.Config{Kernel: k, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	metric := similarity.DefaultMetric()
	want, err := similarity.EvaluateKernel(modelA, modelB, metric)
	if err != nil {
		t.Fatal(err)
	}
	got, err := similarity.EvaluatePrivateKernel(modelA, modelB, similarity.Params{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TSquared-want.TSquared) > 2e-3*(1+math.Abs(want.TSquared)) {
		t.Fatalf("T²: private %g, plaintext %g", got.TSquared, want.TSquared)
	}
}
