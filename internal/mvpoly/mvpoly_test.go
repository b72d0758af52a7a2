package mvpoly_test

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/mvpoly"
)

func fld() *field.Field { return field.Default() }

func TestNewValidation(t *testing.T) {
	f := fld()
	if _, err := mvpoly.New(f, -1, nil); err == nil {
		t.Fatal("negative arity should fail")
	}
	_, err := mvpoly.New(f, 2, []mvpoly.Term{{Coeff: big.NewInt(1), Exps: []uint{1}}})
	if err == nil {
		t.Fatal("wrong exponent count should fail")
	}
}

func TestZeroTermsDropped(t *testing.T) {
	f := fld()
	p, err := mvpoly.New(f, 2, []mvpoly.Term{
		{Coeff: big.NewInt(0), Exps: []uint{1, 0}},
		{Coeff: big.NewInt(5), Exps: []uint{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTerms() != 1 {
		t.Fatalf("terms = %d, want 1", p.NumTerms())
	}
}

func TestEvalKnown(t *testing.T) {
	f := fld()
	// p(x,y) = 3x²y + 2y − 7
	p, err := mvpoly.New(f, 2, []mvpoly.Term{
		{Coeff: big.NewInt(3), Exps: []uint{2, 1}},
		{Coeff: big.NewInt(2), Exps: []uint{0, 1}},
		{Coeff: big.NewInt(-7), Exps: []uint{0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Eval(field.Vec{f.FromInt64(2), f.FromInt64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Centered(v).Int64(); got != 3*4*5+2*5-7 {
		t.Fatalf("p(2,5) = %d", got)
	}
	if _, err := p.Eval(field.Vec{f.One()}); err == nil {
		t.Fatal("wrong arity should fail")
	}
	if p.TotalDegree() != 3 {
		t.Fatalf("total degree = %d", p.TotalDegree())
	}
}

func TestNewLinear(t *testing.T) {
	f := fld()
	w := field.Vec{f.FromInt64(2), f.FromInt64(-3)}
	p, err := mvpoly.NewLinear(f, w, f.FromInt64(10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Eval(field.Vec{f.FromInt64(4), f.FromInt64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Centered(v).Int64(); got != 8-3+10 {
		t.Fatalf("linear eval = %d", got)
	}
}

func TestAddAndScalarMul(t *testing.T) {
	f := fld()
	p, _ := mvpoly.NewLinear(f, field.Vec{f.FromInt64(1), f.FromInt64(2)}, f.Zero())
	q, _ := mvpoly.NewLinear(f, field.Vec{f.FromInt64(3), f.FromInt64(-2)}, f.FromInt64(5))
	sum, err := p.Add(q)
	if err != nil {
		t.Fatal(err)
	}
	x := field.Vec{f.FromInt64(7), f.FromInt64(11)}
	sv, _ := sum.Eval(x)
	pv, _ := p.Eval(x)
	qv, _ := q.Eval(x)
	if sv.Cmp(f.Add(pv, qv)) != 0 {
		t.Fatal("(p+q)(x) != p(x)+q(x)")
	}
	scaled, err := p.ScalarMul(f.FromInt64(-4))
	if err != nil {
		t.Fatal(err)
	}
	scv, _ := scaled.Eval(x)
	if scv.Cmp(f.Mul(f.FromInt64(-4), pv)) != 0 {
		t.Fatal("(c·p)(x) != c·p(x)")
	}
}

// TestExpandDotPowerMatchesDirect: the multinomial expansion of 3·(a·x)^p
// — a KernelSum trie with one row and b0 = 0 — must agree with computing
// the dot product and raising it to the p-th power (§IV-B).
func TestExpandDotPowerMatchesDirect(t *testing.T) {
	f := fld()
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{1, 2, 3, 5} {
		for _, p := range []int{1, 2, 3, 4} {
			a := make(field.Vec, n)
			x := make(field.Vec, n)
			for i := 0; i < n; i++ {
				a[i] = f.FromInt64(int64(rng.IntN(41) - 20))
				x[i] = f.FromInt64(int64(rng.IntN(41) - 20))
			}
			c := make([]*big.Int, p+1)
			for j := range c {
				c[j] = f.Zero()
			}
			c[p] = f.FromInt64(3)
			expanded, err := mvpoly.NewKernelSumForm(f, [][]*big.Int{c}, []field.Vec{a}, f.Zero(), p, f.Zero(), true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := expanded.Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			dot, err := f.Dot(a, x)
			if err != nil {
				t.Fatal(err)
			}
			want := f.FromInt64(3)
			for i := 0; i < p; i++ {
				want = f.Mul(want, dot)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d p=%d: expansion %v != direct %v", n, p, got, want)
			}
		}
	}
}

func TestCompositionsCount(t *testing.T) {
	// |Compositions(n, p)| must equal C(n+p-1, n-1) (the paper's n').
	for _, tc := range []struct{ n, p int }{{2, 3}, {3, 3}, {4, 2}, {5, 4}, {1, 7}} {
		got := len(mvpoly.Compositions(tc.n, tc.p))
		want := mvpoly.NumMonomials(tc.n, tc.p)
		if !want.IsInt64() || got != int(want.Int64()) {
			t.Fatalf("n=%d p=%d: %d compositions, want %v", tc.n, tc.p, got, want)
		}
		for _, c := range mvpoly.Compositions(tc.n, tc.p) {
			sum := uint(0)
			for _, e := range c {
				sum += e
			}
			if int(sum) != tc.p {
				t.Fatalf("composition %v does not sum to %d", c, tc.p)
			}
		}
	}
}

func TestCompositionsUpTo(t *testing.T) {
	got := len(mvpoly.CompositionsUpTo(3, 2))
	// degree 0: 1, degree 1: 3, degree 2: 6.
	if got != 10 {
		t.Fatalf("CompositionsUpTo(3,2) = %d terms, want 10", got)
	}
}

func TestMultinomial(t *testing.T) {
	cases := []struct {
		p    int
		ks   []uint
		want int64
	}{
		{3, []uint{3, 0}, 1},
		{3, []uint{2, 1}, 3},
		{3, []uint{1, 1, 1}, 6},
		{4, []uint{2, 2}, 6},
		{5, []uint{1, 2, 2}, 30},
	}
	for _, tc := range cases {
		if got := mvpoly.Multinomial(tc.p, tc.ks); got.Int64() != tc.want {
			t.Fatalf("Multinomial(%d, %v) = %v, want %d", tc.p, tc.ks, got, tc.want)
		}
	}
}

// TestExpandPolyKernelMatchesKernel: the float expansion must reproduce
// the kernel decision function on arbitrary samples.
func TestExpandPolyKernelMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 4))
	sv := [][]float64{
		{0.5, -0.3, 0.8},
		{-0.2, 0.9, 0.1},
		{0.7, 0.4, -0.6},
	}
	alphaY := []float64{1.5, -2.0, 0.7}
	for _, cfg := range []struct {
		a0, b0 float64
		p      int
	}{
		{1.0 / 3, 0, 3},
		{0.5, 1, 2},
		{1, -0.5, 3},
	} {
		exp, err := mvpoly.ExpandPolyKernel(sv, alphaY, cfg.a0, cfg.b0, cfg.p, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			got, err := exp.Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.25
			for s := range sv {
				dot := 0.0
				for j := range x {
					dot += sv[s][j] * x[j]
				}
				want += alphaY[s] * math.Pow(cfg.a0*dot+cfg.b0, float64(cfg.p))
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("a0=%v b0=%v p=%d: expansion %v != kernel %v", cfg.a0, cfg.b0, cfg.p, got, want)
			}
		}
	}
}

// TestExpandPolyKernelProperty is the same check, quick-checked over
// random support vectors.
func TestExpandPolyKernelProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	check := func() bool {
		n := 2 + rng.IntN(3)
		m := 1 + rng.IntN(4)
		sv := make([][]float64, m)
		ay := make([]float64, m)
		for i := range sv {
			sv[i] = make([]float64, n)
			for j := range sv[i] {
				sv[i][j] = rng.Float64()*2 - 1
			}
			ay[i] = rng.Float64()*4 - 2
		}
		exp, err := mvpoly.ExpandPolyKernel(sv, ay, 1.0/float64(n), 0, 3, 0.1)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		got, err := exp.Eval(x)
		if err != nil {
			return false
		}
		want := 0.1
		for i := range sv {
			dot := 0.0
			for j := range x {
				dot += sv[i][j] * x[j]
			}
			want += ay[i] * math.Pow(dot/float64(n), 3)
		}
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(func(int) bool { return check() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExpandPolyKernelValidation(t *testing.T) {
	if _, err := mvpoly.ExpandPolyKernel(nil, nil, 1, 0, 3, 0); err == nil {
		t.Fatal("empty support vectors should fail")
	}
	if _, err := mvpoly.ExpandPolyKernel([][]float64{{1}}, []float64{1, 2}, 1, 0, 3, 0); err == nil {
		t.Fatal("mismatched multipliers should fail")
	}
	if _, err := mvpoly.ExpandPolyKernel([][]float64{{1}}, []float64{1}, 1, 0, 0, 0); err == nil {
		t.Fatal("degree 0 should fail")
	}
}

func TestMonomialValuesArity(t *testing.T) {
	exp := &mvpoly.FloatExpansion{
		Exps:   [][]uint{{1, 0}, {0, 1}},
		Coeffs: []float64{1, 2},
	}
	if _, err := exp.MonomialValues([]float64{1}); err == nil {
		t.Fatal("wrong arity should fail")
	}
	vals, err := exp.MonomialValues([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3 || vals[1] != 4 {
		t.Fatalf("monomial values = %v", vals)
	}
}
