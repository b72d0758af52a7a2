package poly_test

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/poly"
)

func f(t *testing.T) *field.Field {
	t.Helper()
	return field.Default()
}

func TestEvalKnownPolynomial(t *testing.T) {
	fl := f(t)
	// p(x) = 2x² − 3x + 5
	p := poly.FromCoeffs(fl, big.NewInt(5), big.NewInt(-3), big.NewInt(2))
	cases := map[int64]int64{0: 5, 1: 4, 2: 7, -1: 10, 10: 175}
	for x, want := range cases {
		got := fl.Centered(p.Eval(fl.FromInt64(x)))
		if got.Int64() != want {
			t.Fatalf("p(%d) = %v, want %d", x, got, want)
		}
	}
}

func TestRandomPolynomialShape(t *testing.T) {
	fl := f(t)
	v0 := fl.FromInt64(42)
	for _, deg := range []int{0, 1, 3, 10} {
		p, err := poly.Random(fl, rand.Reader, deg, v0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Eval(fl.Zero()).Cmp(v0) != 0 {
			t.Fatalf("deg %d: p(0) != 42", deg)
		}
		if deg >= 1 && p.Degree() != deg {
			t.Fatalf("degree = %d, want exactly %d", p.Degree(), deg)
		}
	}
	if _, err := poly.Random(fl, rand.Reader, -1, v0); err == nil {
		t.Fatal("negative degree should fail")
	}
}

// TestMaskingCancellation is the OMPE sender's core property: h with
// h(0)=0 contributes nothing at x=0 but randomizes everywhere else.
func TestMaskingCancellation(t *testing.T) {
	fl := f(t)
	secret := poly.FromCoeffs(fl, big.NewInt(99), big.NewInt(-5))
	h, err := poly.Random(fl, rand.Reader, 4, fl.Zero())
	if err != nil {
		t.Fatal(err)
	}
	masked := func(x *big.Int) *big.Int { return fl.Add(secret.Eval(x), h.Eval(x)) }
	if masked(fl.Zero()).Cmp(secret.Eval(fl.Zero())) != 0 {
		t.Fatal("masking must vanish at 0")
	}
	x := fl.FromInt64(3)
	if masked(x).Cmp(secret.Eval(x)) == 0 {
		t.Fatal("masking left p(3) unchanged (vanishing improbability)")
	}
}

// TestInterpolateAtZeroMatchesFull: R(0) interpolated from deg+1 points
// of a random polynomial equals the polynomial's own value at 0 (paper
// Eq. 3's use).
func TestInterpolateAtZeroMatchesFull(t *testing.T) {
	fl := f(t)
	check := func(seed int64) bool {
		p, err := poly.Random(fl, rand.Reader, 6, fl.FromInt64(seed%1000))
		if err != nil {
			return false
		}
		pts := make([]poly.Point, 7)
		for i := range pts {
			x, err := fl.RandNonZero(rand.Reader)
			if err != nil {
				return false
			}
			pts[i] = poly.Point{X: x, Y: p.Eval(x)}
		}
		v, err := poly.InterpolateAtZero(fl, pts)
		if err != nil {
			// Collision of random xs is negligible but legal to reject.
			return true
		}
		return v.Cmp(p.Eval(fl.Zero())) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateRejectsDuplicates(t *testing.T) {
	fl := f(t)
	pts := []poly.Point{
		{X: fl.FromInt64(1), Y: fl.FromInt64(2)},
		{X: fl.FromInt64(1), Y: fl.FromInt64(3)},
	}
	if _, err := poly.InterpolateAtZero(fl, pts); !errors.Is(err, poly.ErrDuplicateNode) {
		t.Fatalf("duplicate nodes: err = %v, want ErrDuplicateNode", err)
	}
	if _, err := poly.InterpolateAtZero(fl, nil); !errors.Is(err, poly.ErrEmptyInput) {
		t.Fatalf("empty input: err = %v, want ErrEmptyInput", err)
	}
}
