package similarity_test

import (
	"math"
	mrand "math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/similarity"
	"repro/internal/svm"
)

func TestLinearBoundaryPoints2D(t *testing.T) {
	m := similarity.DefaultMetric()
	// x + y = 0 crosses the box at (-1,1) and (1,-1), found twice (once
	// per free dimension).
	pts, err := similarity.LinearBoundaryPoints([]float64{1, 1}, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d boundary points, want 4", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p[0]+p[1]) > 1e-12 {
			t.Fatalf("point %v not on the boundary", p)
		}
		for _, v := range p {
			if v < -1-1e-12 || v > 1+1e-12 {
				t.Fatalf("point %v outside the box", p)
			}
		}
	}
	c, err := similarity.Centroid(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]) > 1e-12 || math.Abs(c[1]) > 1e-12 {
		t.Fatalf("centroid %v, want origin", c)
	}
}

func TestLinearBoundaryPointsOffset(t *testing.T) {
	m := similarity.DefaultMetric()
	// x = 0.5: the vertical line crosses at (0.5, ±1); the x-free-variable
	// equations give (0.5, α/β); the y-free equations have no solution in
	// range except x must equal 0.5 exactly — w_y = 0 skips that dim.
	pts, err := similarity.LinearBoundaryPoints([]float64{1, 0}, -0.5, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p[0]-0.5) > 1e-12 {
			t.Fatalf("point %v not on x=0.5", p)
		}
	}
	c, err := similarity.Centroid(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-0.5) > 1e-12 || math.Abs(c[1]) > 1e-12 {
		t.Fatalf("centroid %v, want (0.5, 0)", c)
	}
}

func TestLinearBoundaryOutsideBox(t *testing.T) {
	m := similarity.DefaultMetric()
	if _, err := similarity.LinearBoundaryPoints([]float64{1, 1}, 10, m); err == nil {
		t.Fatal("boundary outside the box should fail")
	}
}

func TestBoundaryValidation(t *testing.T) {
	m := similarity.DefaultMetric()
	if _, err := similarity.LinearBoundaryPoints([]float64{1}, 0, m); err == nil {
		t.Fatal("1-D should fail")
	}
	big := make([]float64, 30)
	for i := range big {
		big[i] = 1
	}
	if _, err := similarity.LinearBoundaryPoints(big, 0, m); err == nil {
		t.Fatal("dimension cap should fail")
	}
	for name, bad := range map[string]similarity.Metric{
		"inverted-box": {Alpha: 1, Beta: -1, L0: 0.05, Theta0: 0.1},
		"infinite-box": {Alpha: math.Inf(-1), Beta: 1, L0: 0.05, Theta0: 0.1},
		"nan-l0":       {Alpha: -1, Beta: 1, L0: math.NaN(), Theta0: 0.1},
		"infinite-l0":  {Alpha: -1, Beta: 1, L0: math.Inf(1), Theta0: 0.1},
		"nan-theta0":   {Alpha: -1, Beta: 1, L0: 0.05, Theta0: math.NaN()},
	} {
		if _, err := similarity.LinearBoundaryPoints([]float64{1, 1}, 0, bad); err == nil {
			t.Errorf("%s: metric accepted", name)
		}
	}
}

// TestLinearCentroidMatchesPoints: the streaming centroid Alice and Bob
// use sums the boundary points in the order LinearBoundaryPoints returns
// them, so it equals Centroid over the materialised points bit for bit,
// and fails where they fail.
func TestLinearCentroidMatchesPoints(t *testing.T) {
	m := similarity.DefaultMetric()
	rng := mrand.New(mrand.NewPCG(5, 7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + trial%9
		w := make([]float64, n)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		b := 2 * rng.NormFloat64()
		if trial%7 == 0 {
			w[trial%n] = 0
		}
		got, err := similarity.LinearCentroid(w, b, m)
		pts, perr := similarity.LinearBoundaryPoints(w, b, m)
		if (err == nil) != (perr == nil) {
			t.Fatalf("trial %d: streaming error %v, materialised error %v", trial, err, perr)
		}
		if err != nil {
			continue
		}
		want, err := similarity.Centroid(pts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: centroid[%d] = %v, Centroid over the points %v", trial, j, got[j], want[j])
			}
		}
	}
}

// TestLinearCentroidAllocs pins the streaming centroid at two
// allocations, the result and the one point buffer, where materialising
// the points costs one per point (n·2^(n−1) at most).
func TestLinearCentroidAllocs(t *testing.T) {
	m := similarity.DefaultMetric()
	for _, tc := range []struct{ n, runs int }{{8, 20}, {16, 2}} {
		w := make([]float64, tc.n)
		for j := range w {
			w[j] = float64(j%3) - 0.7
		}
		allocs := testing.AllocsPerRun(tc.runs, func() {
			if _, err := similarity.LinearCentroid(w, 0.1, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("n = %d: %v allocations per centroid, want 2", tc.n, allocs)
		}
	}
}

func TestCosineSimilarity(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{2, 0}, 1},
		{[]float64{1, 0}, []float64{0, 3}, 0},
		{[]float64{1, 0}, []float64{-1, 0}, -1},
		{[]float64{1, 1}, []float64{1, 0}, math.Sqrt2 / 2},
	}
	for _, tc := range cases {
		got, err := similarity.CosineSimilarity(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("cos(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if _, err := similarity.CosineSimilarity([]float64{0, 0}, []float64{1, 0}); err == nil {
		t.Fatal("zero vector should fail")
	}
	if _, err := similarity.CosineSimilarity([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestTriangleSquaredKnownValues(t *testing.T) {
	m := similarity.DefaultMetric()
	s0 := math.Sin(m.Theta0)
	// Parallel planes (cos=±1) at distance L: T² = ¼(L⁴+L0⁴)·sin²θ0.
	l2 := 0.36
	got := similarity.TriangleSquared(l2, 1, m)
	want := 0.25 * (l2*l2 + math.Pow(m.L0, 4)) * s0 * s0
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("parallel T² = %v, want %v", got, want)
	}
	// Orthogonal planes with coincident centroids: T² = ¼L0⁴(1+sin²θ0).
	got = similarity.TriangleSquared(0, 0, m)
	want = 0.25 * math.Pow(m.L0, 4) * (1 + s0*s0)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("orthogonal T² = %v, want %v", got, want)
	}
}

// TestMetricProperties: symmetry and the regularized floor.
func TestMetricProperties(t *testing.T) {
	m := similarity.DefaultMetric()
	check := func(a1, a2, b1, b2, c1, c2 float64) bool {
		wA := []float64{clampUnit(a1) + 0.1, clampUnit(a2) - 0.2}
		wB := []float64{clampUnit(b1) - 0.15, clampUnit(b2) + 0.25}
		bA, bB := clampUnit(c1)*0.3, clampUnit(c2)*0.3
		r1, err1 := similarity.EvaluateLinear(wA, bA, wB, bB, m)
		r2, err2 := similarity.EvaluateLinear(wB, bB, wA, bA, m)
		if err1 != nil || err2 != nil {
			// Degenerate boundary (doesn't cross the box): acceptable.
			return (err1 == nil) == (err2 == nil)
		}
		if math.Abs(r1.TSquared-r2.TSquared) > 1e-9*(1+r1.TSquared) {
			return false
		}
		floor := 0.25 * math.Pow(m.L0, 4) * math.Pow(math.Sin(m.Theta0), 2)
		return r1.TSquared >= floor-1e-15
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMoreDifferentModelsScoreHigher: rotating a plane farther away must
// increase T.
func TestMoreDifferentModelsScoreHigher(t *testing.T) {
	m := similarity.DefaultMetric()
	base := []float64{1, 0}
	prev := -1.0
	for _, angle := range []float64{0.05, 0.3, 0.8, 1.3} {
		w := []float64{math.Cos(angle), math.Sin(angle)}
		r, err := similarity.EvaluateLinear(base, 0.02, w, 0.02, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.T <= prev {
			t.Fatalf("angle %v: T=%v did not grow (prev %v)", angle, r.T, prev)
		}
		prev = r.T
	}
}

func TestKernelBoundaryPointsMatchLinear(t *testing.T) {
	m := similarity.DefaultMetric()
	// A linear-kernel model through the SVM interface must produce
	// boundary points on the same hyperplane as the closed form.
	model := &svm.Model{
		Kernel:         svm.Linear(),
		SupportVectors: [][]float64{{1, 1}},
		AlphaY:         []float64{1},
		Bias:           0,
		Dim:            2,
	}
	pts, err := similarity.KernelBoundaryPoints(model, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p[0]+p[1]) > 1e-9 {
			t.Fatalf("point %v not on x+y=0", p)
		}
	}
}

func TestEvaluateKernelMismatchedKernels(t *testing.T) {
	a := &svm.Model{Kernel: svm.PaperPolynomial(2), SupportVectors: [][]float64{{1, 0}}, AlphaY: []float64{1}, Dim: 2}
	b := &svm.Model{Kernel: svm.PaperPolynomial(3), SupportVectors: [][]float64{{1, 0}}, AlphaY: []float64{1}, Dim: 2}
	if _, err := similarity.EvaluateKernel(a, b, similarity.DefaultMetric()); err == nil {
		t.Fatal("mismatched kernels should fail")
	}
}

func clampUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(math.Abs(x), 1)
}
