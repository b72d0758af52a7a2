package similarity_test

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
)

func fastParams() similarity.Params {
	return similarity.Params{
		MaskDegree:  2,
		CoverFactor: 2,
		Group:       ot.Group512Test(),
	}
}

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
			got, err := similarity.EvaluatePrivate(tc.wA, tc.bA, tc.wB, tc.bB, fastParams(), rand.Reader)
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
	priv, err := similarity.EvaluatePrivate(w, 0.1, w, 0.1, fastParams(), rand.Reader)
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
	got, err := similarity.EvaluatePrivateKernel(modelA, modelB, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TSquared-want.TSquared) > 2e-3*(1+math.Abs(want.TSquared)) {
		t.Fatalf("T²: private %g, plaintext %g", got.TSquared, want.TSquared)
	}
}
