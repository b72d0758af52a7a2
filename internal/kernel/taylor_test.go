package kernel_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
)

func TestExpSeriesCoefficients(t *testing.T) {
	coeffs, err := kernel.ExpSeries(-2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 2, -4.0 / 3, 2.0 / 3}
	for i, w := range want {
		if math.Abs(coeffs[i]-w) > 1e-12 {
			t.Fatalf("coeff %d = %v, want %v", i, coeffs[i], w)
		}
	}
	if _, err := kernel.ExpSeries(1, 0); err == nil {
		t.Fatal("zero terms should fail")
	}
}

// TestRBFApproxConverges: increasing truncation order must drive the
// approximation to the true kernel within the tail bound.
func TestRBFApproxConverges(t *testing.T) {
	gamma := 0.5
	for _, d2 := range []float64{0.1, 0.5, 1.0, 2.0} {
		exact := math.Exp(-gamma * d2)
		prevErr := math.Inf(1)
		for _, terms := range []int{2, 4, 8, 16} {
			got, err := kernel.RBFApprox(gamma, d2, terms)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(got - exact)
			if e > prevErr+1e-15 {
				t.Fatalf("d2=%v terms=%d: error %v did not shrink (prev %v)", d2, terms, e, prevErr)
			}
			prevErr = e
		}
		got, _ := kernel.RBFApprox(gamma, d2, 16)
		if math.Abs(got-exact) > 1e-9 {
			t.Fatalf("d2=%v: 16-term error %v too large", d2, math.Abs(got-exact))
		}
	}
}

func TestTanhSeriesKnownCoefficients(t *testing.T) {
	coeffs, err := kernel.TanhSeries(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -1.0 / 3, 2.0 / 15, -17.0 / 315}
	for i, w := range want {
		if math.Abs(coeffs[i]-w) > 1e-15 {
			t.Fatalf("tanh coeff %d = %v, want %v", i, coeffs[i], w)
		}
	}
	if _, err := kernel.TanhSeries(0); err == nil {
		t.Fatal("zero terms should fail")
	}
	if _, err := kernel.TanhSeries(100); err == nil {
		t.Fatal("too many terms should fail")
	}
}

// TestTanhApproxAccuracy: within the convergence radius the truncated
// series tracks tanh tightly.
func TestTanhApproxAccuracy(t *testing.T) {
	check := func(u float64) bool {
		if math.IsNaN(u) || math.Abs(u) > 1 {
			return true // series radius is π/2; protocol inputs are scaled small
		}
		got, err := kernel.TanhApprox(u, 8)
		if err != nil {
			return false
		}
		return math.Abs(got-math.Tanh(u)) < 2e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTanhApproxOdd: the truncation preserves tanh's oddness.
func TestTanhApproxOdd(t *testing.T) {
	for _, u := range []float64{0.1, 0.4, 0.9} {
		a, err := kernel.TanhApprox(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kernel.TanhApprox(-u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a+b) > 1e-15 {
			t.Fatalf("tanh approx not odd at %v", u)
		}
	}
}
