package field_test

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func defaultField(t *testing.T) *field.Field {
	t.Helper()
	return field.Default()
}

func TestBuiltinModuliArePrime(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*field.Field, error)
	}{
		{"p25519", func() (*field.Field, error) { return field.NewFromHex(field.P25519Hex) }},
		{"p192", func() (*field.Field, error) { return field.NewFromHex(field.P192Hex) }},
		{"mersenne521", func() (*field.Field, error) { return field.Mersenne(field.MersenneExp521) }},
		{"mersenne607", func() (*field.Field, error) { return field.Mersenne(field.MersenneExp607) }},
		{"mersenne1279", func() (*field.Field, error) { return field.Mersenne(field.MersenneExp1279) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.f()
			if err != nil {
				t.Fatal(err)
			}
			if !f.Modulus().ProbablyPrime(32) {
				t.Fatalf("%s modulus is not prime", tc.name)
			}
		})
	}
}

func TestByBitsReturnsSmallestSufficientField(t *testing.T) {
	cases := []struct {
		min  int
		want int
	}{
		{1, 255}, {192, 255}, {193, 255}, {255, 255},
		{256, 521}, {521, 521}, {522, 607}, {608, 1279}, {1279, 1279},
	}
	for _, tc := range cases {
		f, err := field.ByBits(tc.min)
		if err != nil {
			t.Fatalf("ByBits(%d): %v", tc.min, err)
		}
		if f.Bits() != tc.want {
			t.Fatalf("ByBits(%d) = %d bits, want %d", tc.min, f.Bits(), tc.want)
		}
	}
	if _, err := field.ByBits(1280); err == nil {
		t.Fatal("ByBits(1280) should fail")
	}
}

// TestSupportsLimb: the engine flag is fixed at construction — true for
// 2^255−19 however it was built, false for every other prime — and
// reading it allocates nothing, since every sample of a batch reads it.
func TestSupportsLimb(t *testing.T) {
	p521, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		t.Fatal(err)
	}
	p192, err := field.NewFromHex(field.P192Hex)
	if err != nil {
		t.Fatal(err)
	}
	p25519, err := field.New(field.Default().Modulus())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    *field.Field
		want bool
	}{{field.Default(), true}, {p25519, true}, {p521, false}, {p192, false}} {
		if got := tc.f.SupportsLimb(); got != tc.want {
			t.Errorf("%v: SupportsLimb = %v, want %v", tc.f, got, tc.want)
		}
	}
	f := field.Default()
	if allocs := testing.AllocsPerRun(100, func() { _ = f.SupportsLimb() }); allocs != 0 {
		t.Fatalf("SupportsLimb allocates %.0f times per call, want 0", allocs)
	}
}

func TestNewRejectsBadModulus(t *testing.T) {
	for _, p := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(1)} {
		if _, err := field.New(p); err == nil {
			t.Fatalf("New(%v) should fail", p)
		}
	}
}

// randElem draws a uniform element for property tests.
func randElem(t *testing.T, f *field.Field) *big.Int {
	t.Helper()
	x, err := f.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestFieldAxioms property-tests the ring laws on random elements.
func TestFieldAxioms(t *testing.T) {
	f := defaultField(t)
	cfg := &quick.Config{MaxCount: 200}

	commutativeAdd := func(seed1, seed2 int64) bool {
		a, b := randElem(t, f), randElem(t, f)
		return f.Add(a, b).Cmp(f.Add(b, a)) == 0
	}
	if err := quick.Check(commutativeAdd, cfg); err != nil {
		t.Error("add not commutative:", err)
	}

	associativeMul := func(int64) bool {
		a, b, c := randElem(t, f), randElem(t, f), randElem(t, f)
		return f.Mul(f.Mul(a, b), c).Cmp(f.Mul(a, f.Mul(b, c))) == 0
	}
	if err := quick.Check(associativeMul, cfg); err != nil {
		t.Error("mul not associative:", err)
	}

	distributive := func(int64) bool {
		a, b, c := randElem(t, f), randElem(t, f), randElem(t, f)
		return f.Mul(a, f.Add(b, c)).Cmp(f.Add(f.Mul(a, b), f.Mul(a, c))) == 0
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Error("not distributive:", err)
	}

	inverses := func(int64) bool {
		a := randElem(t, f)
		if a.Sign() == 0 {
			return true
		}
		inv, err := f.Inv(a)
		if err != nil {
			return false
		}
		return f.Mul(a, inv).Cmp(f.One()) == 0
	}
	if err := quick.Check(inverses, cfg); err != nil {
		t.Error("inverse law fails:", err)
	}

	negation := func(int64) bool {
		a := randElem(t, f)
		return f.Add(a, f.Neg(a)).Sign() == 0
	}
	if err := quick.Check(negation, cfg); err != nil {
		t.Error("negation law fails:", err)
	}
}

func TestInvZeroFails(t *testing.T) {
	f := defaultField(t)
	if _, err := f.Inv(f.Zero()); err == nil {
		t.Fatal("Inv(0) should fail")
	}
	if _, err := f.Div(f.One(), f.Zero()); err == nil {
		t.Fatal("Div by 0 should fail")
	}
}

func TestCenteredRoundTrip(t *testing.T) {
	f := defaultField(t)
	for _, v := range []int64{0, 1, -1, 12345, -98765, 1 << 40, -(1 << 40)} {
		e := f.FromInt64(v)
		if got := f.Centered(e).Int64(); got != v {
			t.Fatalf("Centered(FromInt64(%d)) = %d", v, got)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := defaultField(t)
	check := func(int64) bool {
		x := randElem(t, f)
		b, err := f.Bytes(x)
		if err != nil {
			return false
		}
		if len(b) != f.ElementLen() {
			return false
		}
		y, err := f.FromBytes(b)
		if err != nil {
			return false
		}
		return x.Cmp(y) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromBytesRejectsInvalid(t *testing.T) {
	f := defaultField(t)
	if _, err := f.FromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input should fail")
	}
	// The modulus itself is not canonical.
	raw := make([]byte, f.ElementLen())
	f.Modulus().FillBytes(raw)
	if _, err := f.FromBytes(raw); err == nil {
		t.Fatal("modulus bytes should be rejected")
	}
}

func TestBytesRejectsNonCanonical(t *testing.T) {
	f := defaultField(t)
	if _, err := f.Bytes(f.Modulus()); err == nil {
		t.Fatal("Bytes(p) should fail")
	}
	if _, err := f.Bytes(big.NewInt(-1)); err == nil {
		t.Fatal("Bytes(-1) should fail")
	}
}

func TestRandBounded(t *testing.T) {
	f := defaultField(t)
	bound := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		x, err := f.RandBounded(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() <= 0 || x.Cmp(big.NewInt(1001)) >= 0 {
			t.Fatalf("RandBounded out of [1,1000]: %v", x)
		}
	}
	if _, err := f.RandBounded(rand.Reader, big.NewInt(0)); err == nil {
		t.Fatal("zero bound should fail")
	}
	if _, err := f.RandBounded(rand.Reader, f.Modulus()); err == nil {
		t.Fatal("bound >= p/2 should fail")
	}
}

func TestRandNonZero(t *testing.T) {
	f := defaultField(t)
	for i := 0; i < 100; i++ {
		x, err := f.RandNonZero(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() == 0 || !f.Contains(x) {
			t.Fatalf("RandNonZero returned %v", x)
		}
	}
}

func TestVectorOps(t *testing.T) {
	f := defaultField(t)
	a := field.Vec{f.FromInt64(1), f.FromInt64(2), f.FromInt64(3)}
	b := field.Vec{f.FromInt64(4), f.FromInt64(-5), f.FromInt64(6)}

	dot, err := f.Dot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Centered(dot).Int64() != 4-10+18 {
		t.Fatalf("dot = %v", f.Centered(dot))
	}
	if _, err := f.Dot(a, b[:2]); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestFieldEqualAndString(t *testing.T) {
	a := field.Default()
	b := field.Default()
	c, err := field.NewFromHex(field.P192Hex)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || a.Equal(c) || a.Equal(nil) {
		t.Fatal("Equal misbehaves")
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
	if !bytes.Contains([]byte(a.String()), []byte("255")) {
		t.Fatalf("String should mention bit size: %s", a.String())
	}
}

func TestRandVec(t *testing.T) {
	f := defaultField(t)
	v, err := f.RandVec(rand.Reader, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 5 {
		t.Fatalf("len = %d", len(v))
	}
	for _, x := range v {
		if !f.Contains(x) {
			t.Fatalf("element %v out of field", x)
		}
	}
}
