package poly

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
)

func p25519(t testing.TB) *field.Field {
	t.Helper()
	f, err := field.NewFromHex(field.P25519Hex)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randLimbs(t testing.TB, n int) []limb.Element {
	t.Helper()
	out := make([]limb.Element, n)
	for i := range out {
		if err := out[i].Rand(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLimbPolyEvalMatchesBig checks Horner evaluation against the math/big
// path coefficient-for-coefficient.
func TestLimbPolyEvalMatchesBig(t *testing.T) {
	f := p25519(t)
	for _, deg := range []int{0, 1, 2, 5, 17} {
		cs := randLimbs(t, deg+1)
		big := make([]*big.Int, len(cs))
		for i := range cs {
			big[i] = cs[i].ToBig()
		}
		lp := NewLimb(cs)
		bp := New(f, big)
		for trial := 0; trial < 8; trial++ {
			var x, got limb.Element
			if err := x.Rand(rand.Reader); err != nil {
				t.Fatal(err)
			}
			lp.EvalInto(&got, &x)
			want := bp.Eval(x.ToBig())
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("deg %d: eval mismatch: %v != %v", deg, got.ToBig(), want)
			}
		}
	}
}

func TestNewLimbTrimsAndCopies(t *testing.T) {
	cs := make([]limb.Element, 4)
	cs[0].SetUint64(7)
	cs[1].SetUint64(9)
	p := NewLimb(cs)
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1 after trim", p.Degree())
	}
	cs[1].SetUint64(1) // mutating the input must not affect the poly
	var c limb.Element
	p.Coeff(1, &c)
	var want limb.Element
	want.SetUint64(9)
	if !c.Equal(&want) {
		t.Fatal("NewLimb did not copy coefficients")
	}
	p.Coeff(5, &c)
	if !c.IsZero() {
		t.Fatal("Coeff beyond degree not zero")
	}
	if NewLimb(nil).Degree() != -1 {
		t.Fatal("zero polynomial degree")
	}
}

func TestRandomLimbShape(t *testing.T) {
	var v limb.Element
	v.SetUint64(42)
	for _, deg := range []int{0, 1, 2, 4} {
		p, err := RandomLimb(rand.Reader, deg, &v)
		if err != nil {
			t.Fatal(err)
		}
		if p.Degree() != deg {
			t.Fatalf("degree = %d, want %d", p.Degree(), deg)
		}
		var at0 limb.Element
		var x limb.Element
		p.EvalInto(&at0, x.SetZero())
		if !at0.Equal(&v) {
			t.Fatalf("p(0) = %v, want 42", at0.ToBig())
		}
	}
	if _, err := RandomLimb(rand.Reader, -1, &v); err == nil {
		t.Fatal("negative degree accepted")
	}
}

// atZero interpolates one sample through AtZeroBatch.
func atZero(ip *LimbInterpolator, xs, ys []limb.Element) (limb.Element, error) {
	var out [1]limb.Element
	err := ip.AtZeroBatch([]LimbNodes{{Xs: xs, Ys: ys}}, out[:])
	return out[0], err
}

// TestInterpolateAtZeroLimbMatchesBig cross-checks the batch-inverted
// limb interpolation, one sample at a time, against the math/big
// reference on random node sets.
func TestInterpolateAtZeroLimbMatchesBig(t *testing.T) {
	f := p25519(t)
	var ip LimbInterpolator
	for _, n := range []int{1, 2, 3, 7, 12} {
		xs := randLimbs(t, n)
		ys := randLimbs(t, n)
		points := make([]Point, n)
		for i := range points {
			points[i] = Point{X: xs[i].ToBig(), Y: ys[i].ToBig()}
		}
		got, err := atZero(&ip, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := InterpolateAtZero(f, points)
		if err != nil {
			t.Fatal(err)
		}
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("n=%d: %v != %v", n, got.ToBig(), want)
		}
	}
}

func TestInterpolateAtZeroLimbErrors(t *testing.T) {
	var ip LimbInterpolator
	if _, err := atZero(&ip, nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty input: %v", err)
	}
	xs := randLimbs(t, 3)
	xs[2] = xs[0]
	ys := randLimbs(t, 3)
	if _, err := atZero(&ip, xs, ys); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate node: %v", err)
	}
	if _, err := atZero(&ip, xs[:2], ys[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestLimbHornerAllocs pins the ported Horner loop at zero allocations per
// evaluation — the contract that makes the limb backend worth having.
func TestLimbHornerAllocs(t *testing.T) {
	p, err := RandomLimb(rand.Reader, 8, &limb.Element{})
	if err != nil {
		t.Fatal(err)
	}
	var x, out limb.Element
	if err := x.Rand(rand.Reader); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p.EvalInto(&out, &x)
	})
	if allocs != 0 {
		t.Fatalf("EvalInto allocates %.1f/op, want 0", allocs)
	}
}

// TestLimbInterpolatorAllocs pins the ported Lagrange loop at zero
// steady-state allocations (the scratch buffers amortize across batches).
func TestLimbInterpolatorAllocs(t *testing.T) {
	samples := []LimbNodes{{Xs: randLimbs(t, 9), Ys: randLimbs(t, 9)}}
	out := make([]limb.Element, 1)
	var ip LimbInterpolator
	if err := ip.AtZeroBatch(samples, out); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ip.AtZeroBatch(samples, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AtZeroBatch allocates %.1f/op steady-state, want 0", allocs)
	}
}

// TestAtZeroBatchMatchesAtZero pins the shared-inversion batch
// interpolator to the math/big InterpolateAtZero on random samples of
// varying size.
func TestAtZeroBatchMatchesAtZero(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(21, 21))
	draw := func() limb.Element {
		var e limb.Element
		var buf [32]byte
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		buf[0] &= 0x3f
		if err := e.SetBytes(buf[:]); err != nil {
			t.Fatal(err)
		}
		return e
	}
	samples := make([]LimbNodes, 9)
	for s := range samples {
		n := 1 + s%5
		xs := make([]limb.Element, n)
		ys := make([]limb.Element, n)
		seen := map[limb.Element]bool{}
		for j := 0; j < n; j++ {
			for {
				xs[j] = draw()
				if !seen[xs[j]] && !xs[j].IsZero() {
					seen[xs[j]] = true
					break
				}
			}
			ys[j] = draw()
		}
		samples[s] = LimbNodes{Xs: xs, Ys: ys}
	}
	out := make([]limb.Element, len(samples))
	var ip LimbInterpolator
	if err := ip.AtZeroBatch(samples, out); err != nil {
		t.Fatal(err)
	}
	f := p25519(t)
	for s, sm := range samples {
		points := make([]Point, len(sm.Xs))
		for j := range points {
			points[j] = Point{X: sm.Xs[j].ToBig(), Y: sm.Ys[j].ToBig()}
		}
		want, err := InterpolateAtZero(f, points)
		if err != nil {
			t.Fatal(err)
		}
		if out[s].ToBig().Cmp(want) != 0 {
			t.Fatalf("sample %d: batch result diverges from InterpolateAtZero", s)
		}
	}
	// Duplicate nodes must be rejected, not silently folded.
	dup := LimbNodes{Xs: []limb.Element{samples[0].Xs[0], samples[0].Xs[0]}, Ys: samples[1].Xs[:2]}
	if err := ip.AtZeroBatch([]LimbNodes{dup}, out[:1]); err == nil {
		t.Fatal("duplicate node should fail")
	}
}
