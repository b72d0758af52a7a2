package fixedpoint_test

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/fixedpoint"
)

// defaultCodec is the codec most tests run: 2^255−19 at 40 fractional
// bits.
func defaultCodec() *fixedpoint.Codec {
	c, err := fixedpoint.NewCodec(field.Default(), 40)
	if err != nil {
		panic(err)
	}
	return c
}

// encode and decode work at the codec's base scale.
func encode(c *fixedpoint.Codec, x float64) (*big.Int, error) { return c.EncodeAtScale(x, c.Scale()) }

func decode(c *fixedpoint.Codec, e *big.Int) (float64, error) { return c.DecodeAtScale(e, c.Scale()) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := defaultCodec()
	check := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true // out of scope for the protocol's data range
		}
		e, err := encode(c, x)
		if err != nil {
			return false
		}
		y, err := decode(c, e)
		if err != nil {
			return false
		}
		return math.Abs(x-y) <= 1.0/float64(int64(1)<<c.FracBits())+math.Abs(x)*1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeExactValues(t *testing.T) {
	c := defaultCodec()
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 1024, -123.0625} {
		e, err := encode(c, x)
		if err != nil {
			t.Fatal(err)
		}
		y, err := decode(c, e)
		if err != nil {
			t.Fatal(err)
		}
		if y != x {
			t.Fatalf("Encode/Decode(%v) = %v (dyadic rationals must round-trip exactly)", x, y)
		}
	}
}

// TestAdditionHomomorphism checks Enc(a)+Enc(b) decodes to a+b.
func TestAdditionHomomorphism(t *testing.T) {
	c := defaultCodec()
	f := c.Field()
	check := func(a, b float64) bool {
		if !inRange(a) || !inRange(b) {
			return true
		}
		ea, err := encode(c, a)
		if err != nil {
			return false
		}
		eb, err := encode(c, b)
		if err != nil {
			return false
		}
		sum, err := decode(c, f.Add(ea, eb))
		if err != nil {
			return false
		}
		return math.Abs(sum-(a+b)) <= 2.0/float64(int64(1)<<c.FracBits())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestProductScale checks Enc_S(a)·Enc_S(b) decodes at scale S².
func TestProductScale(t *testing.T) {
	c := defaultCodec()
	f := c.Field()
	check := func(a, b float64) bool {
		if !inRange(a) || !inRange(b) {
			return true
		}
		ea, err := encode(c, a)
		if err != nil {
			return false
		}
		eb, err := encode(c, b)
		if err != nil {
			return false
		}
		prod, err := c.DecodeAtScale(f.Mul(ea, eb), c.ScalePow(2))
		if err != nil {
			return false
		}
		tol := (math.Abs(a) + math.Abs(b) + 1) / float64(int64(1)<<c.FracBits())
		return math.Abs(prod-a*b) <= tol
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScaleNormalizedCoefficient checks the DESIGN.md §3 invariant: a
// coefficient encoded at S_target/S_in^k times a degree-k product of
// base-scale inputs decodes at S_target.
func TestScaleNormalizedCoefficient(t *testing.T) {
	c := defaultCodec()
	f := c.Field()
	coeff, in1, in2 := 0.75, -1.5, 2.25
	target := c.ScalePow(3)

	// coeff at S^(3-2) = S, inputs at S: coeff·in1·in2 decodes at S³.
	ec, err := c.EncodeAtScale(coeff, c.ScalePow(1))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := encode(c, in1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := encode(c, in2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeAtScale(f.Mul(ec, f.Mul(e1, e2)), target)
	if err != nil {
		t.Fatal(err)
	}
	want := coeff * in1 * in2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("normalized product = %v, want %v", got, want)
	}
}

func TestSign(t *testing.T) {
	c := defaultCodec()
	cases := []struct {
		x    float64
		want int
	}{{3.5, 1}, {-2.25, -1}, {0, 0}}
	for _, tc := range cases {
		e, err := encode(c, tc.x)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Sign(e)
		if err != nil {
			t.Fatal(err)
		}
		if s != tc.want {
			t.Fatalf("Sign(%v) = %d, want %d", tc.x, s, tc.want)
		}
	}
}

// TestSignSurvivesAmplification is the protocol-critical invariant of
// §IV-A.3: multiplying by a positive bounded amplifier preserves sign.
func TestSignSurvivesAmplification(t *testing.T) {
	c := defaultCodec()
	f := c.Field()
	amps := []*big.Int{big.NewInt(1), big.NewInt(12345), new(big.Int).Lsh(big.NewInt(1), 64)}
	for _, x := range []float64{0.001, -0.001, 7.5, -123.25} {
		e, err := encode(c, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, amp := range amps {
			s, err := c.Sign(f.Mul(amp, e))
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if x < 0 {
				want = -1
			}
			if s != want {
				t.Fatalf("sign of %v × %v = %d, want %d", amp, x, s, want)
			}
		}
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c := defaultCodec()
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := encode(c, x); err == nil {
			t.Fatalf("Encode(%v) should fail", x)
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	c := defaultCodec()
	if _, err := encode(c, 1e75); err == nil {
		t.Fatal("huge value should overflow a 255-bit field at 2^40 scale")
	}
}

func TestNewCodecValidation(t *testing.T) {
	f := field.Default()
	if _, err := fixedpoint.NewCodec(nil, 40); err == nil {
		t.Fatal("nil field should fail")
	}
	if _, err := fixedpoint.NewCodec(f, 0); err == nil {
		t.Fatal("zero fracBits should fail")
	}
	if _, err := fixedpoint.NewCodec(f, 300); err == nil {
		t.Fatal("fracBits >= field bits should fail")
	}
	// A precision read off the wire that is negative as an int must not
	// slip past the range check into a 2^63-bit scale.
	if _, err := fixedpoint.NewCodec(f, 1<<63); err == nil {
		t.Fatal("fracBits 2^63 should fail")
	}
}

func TestEncodeVecReportsComponent(t *testing.T) {
	c := defaultCodec()
	_, err := c.EncodeVec([]float64{1, math.NaN(), 3})
	if err == nil {
		t.Fatal("NaN component should fail")
	}
}

func TestDecodeValidation(t *testing.T) {
	c := defaultCodec()
	if _, err := decode(c, big.NewInt(-5)); err == nil {
		t.Fatal("non-canonical element should fail")
	}
	e, err := encode(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeAtScale(e, big.NewInt(0)); err == nil {
		t.Fatal("zero scale should fail")
	}
}

func inRange(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9
}

// ratRound is the exact reference encode before reduction: x·scale as a
// big.Rat, rounded half away from zero.
func ratRound(x float64, scale *big.Int) *big.Int {
	r := new(big.Rat).SetFloat64(x)
	r.Mul(r, new(big.Rat).SetInt(scale))
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	neg := num.Sign() < 0
	if neg {
		num.Neg(num)
	}
	q, rem := new(big.Int).QuoRem(num, den, new(big.Int))
	rem.Lsh(rem, 1)
	if rem.Cmp(den) >= 0 {
		q.Add(q, big.NewInt(1))
	}
	if neg {
		q.Neg(q)
	}
	return q
}

// TestEncodePow2MatchesRatPath pins the mantissa-shift encode to the
// exact big.Rat reference across magnitudes, signs, and power-of-two
// scales, and checks that every other scale is refused.
func TestEncodePow2MatchesRatPath(t *testing.T) {
	f, err := field.NewFromHex(field.P25519Hex)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fixedpoint.NewCodec(f, 40)
	if err != nil {
		t.Fatal(err)
	}
	ratEncode := func(x float64, scale *big.Int) *big.Int {
		q := ratRound(x, scale)
		return q.Mod(q, f.Modulus())
	}
	scales := []*big.Int{
		c.Scale(),
		new(big.Int).Lsh(big.NewInt(1), 1),
		new(big.Int).Lsh(big.NewInt(1), 80),
		big.NewInt(1),
	}
	for _, scale := range []*big.Int{big.NewInt(0), big.NewInt(-4), big.NewInt(3), big.NewInt(1000000)} {
		if _, err := c.EncodeAtScale(1, scale); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
	rng := rand.New(rand.NewPCG(11, 11))
	values := []float64{0, 1, -1, 0.5, -0.5, 1.5e-20, -1.5e-20, 3.25e9, -3.25e9, 1e-40}
	for i := 0; i < 500; i++ {
		values = append(values, (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(25)-12)))
	}
	for _, scale := range scales {
		for _, x := range values {
			got, err := c.EncodeAtScale(x, scale)
			want := ratEncode(x, scale)
			overflow := new(big.Int).Abs(f.Centered(want)).Cmp(new(big.Int).Rsh(f.Modulus(), 1)) >= 0
			if err != nil {
				continue // overflow errors are checked elsewhere
			}
			if overflow {
				t.Fatalf("x=%g scale=%s: expected overflow error", x, scale)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("x=%g scale=%s: got %s, want %s", x, scale, got, want)
			}
		}
	}
}

// encodeVecCodecs returns the default codec and one over a small test
// field, p = 2^61 − 1 at 20 fractional bits, whose centered range ends
// below 2^60.
func encodeVecCodecs(t *testing.T) []*fixedpoint.Codec {
	t.Helper()
	small, err := field.New(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 61), big.NewInt(1)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := fixedpoint.NewCodec(small, 20)
	if err != nil {
		t.Fatal(err)
	}
	return []*fixedpoint.Codec{defaultCodec(), c}
}

// encodeVecEdges returns signed zeros, subnormals, exact .5 ties at the
// codec's scale, values that scale to 2^62, 2^63 and 2^64 and their
// float neighbours, far overflows, NaN and ±Inf.
func encodeVecEdges(c *fixedpoint.Codec) []float64 {
	fb := int(c.FracBits())
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		1e75, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for k := 0; k < 4; k++ {
		xs = append(xs, math.Ldexp(float64(k)+0.5, -fb))
	}
	for _, e := range []int{62, 63, 64} {
		x := math.Ldexp(1, e-fb)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range xs[:len(xs):len(xs)] {
		if !math.IsNaN(x) && x != 0 {
			xs = append(xs, -x)
		}
	}
	return xs
}

// TestEncodeVecMatchesEncode checks EncodeVec element by element against
// Encode — the same residue, or the same error — on the edge values, one
// value at a time and all encodable values in one vector, on the default
// field and a small one; and Encode against the exact big.Rat reference
// and its error semantics.
func TestEncodeVecMatchesEncode(t *testing.T) {
	for _, c := range encodeVecCodecs(t) {
		bits := c.Field().Bits()
		p := c.Field().Modulus()
		var ok []float64
		var want []*big.Int
		for _, x := range encodeVecEdges(c) {
			e, err := encode(c, x)
			switch {
			case math.IsNaN(x) || math.IsInf(x, 0):
				if !errors.Is(err, fixedpoint.ErrNotFinite) {
					t.Errorf("%d-bit field, x=%g: Encode error %v, want ErrNotFinite", bits, x, err)
				}
			case new(big.Int).Abs(ratRound(x, c.Scale())).Cmp(new(big.Int).Rsh(p, 1)) >= 0:
				if !errors.Is(err, fixedpoint.ErrOverflow) {
					t.Errorf("%d-bit field, x=%g: Encode error %v, want ErrOverflow", bits, x, err)
				}
			default:
				ref := ratRound(x, c.Scale())
				if err != nil || e.Cmp(ref.Mod(ref, p)) != 0 {
					t.Errorf("%d-bit field, x=%g: Encode %v, %v, want %v", bits, x, e, err, ref)
				}
			}
			vec, verr := c.EncodeVec([]float64{x})
			switch {
			case err != nil:
				if verr == nil || !errors.Is(verr, err) {
					t.Errorf("%d-bit field, x=%g: EncodeVec error %v, Encode error %v", bits, x, verr, err)
				}
				continue
			case verr != nil:
				t.Errorf("%d-bit field, x=%g: EncodeVec error %v, Encode %v", bits, x, verr, e)
				continue
			case vec[0].Cmp(e) != 0:
				t.Errorf("%d-bit field, x=%g: EncodeVec %v, Encode %v", bits, x, vec[0], e)
			}
			ok, want = append(ok, x), append(want, e)
		}
		vec, err := c.EncodeVec(ok)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ok {
			if vec[i].Cmp(want[i]) != 0 {
				t.Errorf("%d-bit field, x=%g in a vector: EncodeVec %v, Encode %v", bits, ok[i], vec[i], want[i])
			}
		}
		// Elements share one word backing: growing one must leave the
		// next as it was.
		huge := new(big.Int).Lsh(big.NewInt(1), 1024)
		for i := 0; i+1 < len(vec); i++ {
			vec[i].Add(vec[i], huge)
			if vec[i+1].Cmp(want[i+1]) != 0 {
				t.Errorf("%d-bit field: growing element %d changed the next to %v", bits, i, vec[i+1])
			}
		}
	}
}

// TestEncodeVecAllocs pins EncodeVec's allocations to a count that does
// not grow with the vector's length.
func TestEncodeVecAllocs(t *testing.T) {
	c := defaultCodec()
	rng := rand.New(rand.NewPCG(5, 5))
	counts := map[int]float64{}
	for _, n := range []int{8, 500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (rng.Float64() - 0.5) * 1e3
		}
		counts[n] = testing.AllocsPerRun(20, func() {
			if _, err := c.EncodeVec(xs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[8] != counts[500] || counts[500] > 3 {
		t.Errorf("EncodeVec allocates %.0f at n = 8 and %.0f at n = 500, want the same, at most 3", counts[8], counts[500])
	}
}
