package similarity_test

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/similarity"
	"repro/internal/svm"
)

// TestKernelDegreeFieldLadder: the kernel variant needs (8p+5)·12 + 72
// bits for a degree-p polynomial kernel, so degrees 3 and 4 run on
// 2^521−1 and degree 5 on 2^1279−1, where a private evaluation still
// matches the clear-text metric.
func TestKernelDegreeFieldLadder(t *testing.T) {
	// Two 2-D training sets on a 5×5 grid, each labelled by the side of
	// a line: a shallow one and a near-vertical one.
	train := func(a, b, c float64) ([][]float64, []int) {
		var x [][]float64
		var y []int
		for i := range 5 {
			for j := range 5 {
				p := []float64{float64(i)/4 - 0.5, float64(j)/4 - 0.5}
				label := 1
				if a*p[0]+b*p[1]+c < 0 {
					label = -1
				}
				x, y = append(x, p), append(y, label)
			}
		}
		return x, y
	}
	xA, yA := train(-0.3, 1, -0.1)
	xB, yB := train(1, 0.2, 0.1)
	for _, tc := range []struct{ degree, wantBits int }{{3, 521}, {4, 521}, {5, 1279}} {
		k := svm.Polynomial(0.5, 1, tc.degree)
		modelA, err := svm.Train(xA, yA, svm.Config{Kernel: k, C: 10})
		if err != nil {
			t.Fatal(err)
		}
		alice, err := similarity.NewKernelAlice(modelA, similarity.Params{}, rand.Reader)
		if err != nil {
			t.Fatalf("degree %d: %v", tc.degree, err)
		}
		if bits := alice.Spec().FieldBits; bits != tc.wantBits {
			t.Fatalf("degree %d: %d-bit field, want %d", tc.degree, bits, tc.wantBits)
		}
		if tc.degree != 5 {
			continue
		}
		modelB, err := svm.Train(xB, yB, svm.Config{Kernel: k, C: 10})
		if err != nil {
			t.Fatal(err)
		}
		want, err := similarity.EvaluateKernel(modelA, modelB, similarity.DefaultMetric())
		if err != nil {
			t.Fatal(err)
		}
		got, err := similarity.EvaluatePrivateKernel(modelA, modelB, similarity.Params{}, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.TSquared-want.TSquared) > 2e-3*(1+math.Abs(want.TSquared)) {
			t.Fatalf("degree 5: T² private %g, plaintext %g", got.TSquared, want.TSquared)
		}
	}
}
