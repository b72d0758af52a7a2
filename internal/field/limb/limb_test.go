package limb_test

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
)

func bigField(t testing.TB) *field.Field {
	t.Helper()
	return field.Default()
}

func randomBig(t testing.TB, f *field.Field) *big.Int {
	t.Helper()
	x, err := f.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestModulusMatchesDefaultField(t *testing.T) {
	if limb.Modulus().Cmp(bigField(t).Modulus()) != 0 {
		t.Fatal("limb modulus differs from field.Default()")
	}
}

func TestRoundTripBytesAndBig(t *testing.T) {
	f := bigField(t)
	for i := 0; i < 200; i++ {
		x := randomBig(t, f)
		var e limb.Element
		if err := e.SetBig(x); err != nil {
			t.Fatal(err)
		}
		if e.ToBig().Cmp(x) != 0 {
			t.Fatalf("big round trip: got %v want %v", e.ToBig(), x)
		}
		wb, err := f.Bytes(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Bytes(), wb) {
			t.Fatal("limb encoding differs from field encoding")
		}
		var d limb.Element
		if err := d.SetBytes(wb); err != nil {
			t.Fatal(err)
		}
		if !d.Equal(&e) {
			t.Fatal("byte round trip mismatch")
		}
	}
}

func TestSetBytesRejectsNonCanonical(t *testing.T) {
	var e limb.Element
	over := limb.Modulus().Bytes() // exactly p: 32 bytes, not canonical
	if err := e.SetBytes(over); err == nil {
		t.Fatal("accepted p")
	}
	all := bytes.Repeat([]byte{0xff}, 32)
	if err := e.SetBytes(all); err == nil {
		t.Fatal("accepted 2^256-1")
	}
	if err := e.SetBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short input")
	}
	if err := e.SetBig(big.NewInt(-1)); err == nil {
		t.Fatal("accepted negative")
	}
}

func TestArithmeticMatchesBig(t *testing.T) {
	f := bigField(t)
	for i := 0; i < 300; i++ {
		a, b := randomBig(t, f), randomBig(t, f)
		var ea, eb, er limb.Element
		if err := ea.SetBig(a); err != nil {
			t.Fatal(err)
		}
		if err := eb.SetBig(b); err != nil {
			t.Fatal(err)
		}
		if got, want := er.Add(&ea, &eb).ToBig(), f.Add(a, b); got.Cmp(want) != 0 {
			t.Fatalf("add mismatch: %v vs %v", got, want)
		}
		if got, want := er.Sub(&ea, &eb).ToBig(), f.Sub(a, b); got.Cmp(want) != 0 {
			t.Fatalf("sub mismatch: %v vs %v", got, want)
		}
		if got, want := er.Neg(&ea).ToBig(), f.Neg(a); got.Cmp(want) != 0 {
			t.Fatalf("neg mismatch: %v vs %v", got, want)
		}
		if got, want := er.Mul(&ea, &eb).ToBig(), f.Mul(a, b); got.Cmp(want) != 0 {
			t.Fatalf("mul mismatch: %v vs %v", got, want)
		}
		if got, want := er.Square(&ea).ToBig(), f.Mul(a, a); got.Cmp(want) != 0 {
			t.Fatalf("square mismatch: %v vs %v", got, want)
		}
	}
}

// TestSquareMatchesMul checks the dedicated squaring against Mul(x, x) —
// the implementation it replaced — on the residues where a carry or the
// final subtraction can go wrong, on random residues, and in place.
func TestSquareMatchesMul(t *testing.T) {
	p := limb.Modulus()
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19), big.NewInt(38),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 254), big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 192), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).SetUint64(^uint64(0)),
	}
	for i := 0; i < 2000; i++ {
		v, err := rand.Int(rand.Reader, p)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		var x, sq, mul limb.Element
		if err := x.SetBig(v); err != nil {
			t.Fatal(err)
		}
		mul.Mul(&x, &x)
		if !sq.Square(&x).Equal(&mul) {
			t.Fatalf("square(%v) = %v, mul gives %v", v, sq.ToBig(), mul.ToBig())
		}
		if !x.Square(&x).Equal(&mul) {
			t.Fatalf("in-place square(%v) differs", v)
		}
		// Chains of squarings keep every intermediate canonical.
		for j := 0; j < 8; j++ {
			mul.Mul(&x, &x)
			if !x.Square(&x).Equal(&mul) {
				t.Fatalf("square chain from %v diverged at step %d", v, j)
			}
		}
	}
}

func TestArithmeticEdgeValues(t *testing.T) {
	f := bigField(t)
	p := f.Modulus()
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19), big.NewInt(38),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(19)),
		new(big.Int).Rsh(p, 1),
	}
	for _, a := range edges {
		for _, b := range edges {
			var ea, eb, er limb.Element
			if err := ea.SetBig(a); err != nil {
				t.Fatal(err)
			}
			if err := eb.SetBig(b); err != nil {
				t.Fatal(err)
			}
			if got, want := er.Mul(&ea, &eb).ToBig(), f.Mul(a, b); got.Cmp(want) != 0 {
				t.Fatalf("mul(%v,%v) = %v, want %v", a, b, got, want)
			}
			if got, want := er.Add(&ea, &eb).ToBig(), f.Add(a, b); got.Cmp(want) != 0 {
				t.Fatalf("add(%v,%v) = %v, want %v", a, b, got, want)
			}
			if got, want := er.Sub(&ea, &eb).ToBig(), f.Sub(a, b); got.Cmp(want) != 0 {
				t.Fatalf("sub(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestInv(t *testing.T) {
	f := bigField(t)
	var zero limb.Element
	if _, err := zero.Inv(&zero); err == nil {
		t.Fatal("inverted zero")
	}
	for i := 0; i < 50; i++ {
		a := randomBig(t, f)
		if a.Sign() == 0 {
			continue
		}
		var ea, inv, prod limb.Element
		if err := ea.SetBig(a); err != nil {
			t.Fatal(err)
		}
		if _, err := inv.Inv(&ea); err != nil {
			t.Fatal(err)
		}
		want, err := f.Inv(a)
		if err != nil {
			t.Fatal(err)
		}
		if inv.ToBig().Cmp(want) != 0 {
			t.Fatalf("inv mismatch for %v", a)
		}
		one := limb.One()
		if !prod.Mul(&ea, &inv).Equal(&one) {
			t.Fatal("a·a⁻¹ != 1")
		}
	}
}

func TestBatchInvert(t *testing.T) {
	f := bigField(t)
	for _, n := range []int{1, 2, 3, 7, 16} {
		xs := make([]limb.Element, n)
		want := make([]*big.Int, n)
		for i := range xs {
			a := randomBig(t, f)
			for a.Sign() == 0 {
				a = randomBig(t, f)
			}
			if err := xs[i].SetBig(a); err != nil {
				t.Fatal(err)
			}
			w, err := f.Inv(a)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		if err := limb.BatchInvert(xs); err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i].ToBig().Cmp(want[i]) != 0 {
				t.Fatalf("batch invert [%d/%d] mismatch", i, n)
			}
		}
	}
	// A zero anywhere must error and leave inputs untouched.
	xs := make([]limb.Element, 3)
	xs[0].SetUint64(5)
	xs[2].SetUint64(7)
	before := make([]limb.Element, 3)
	copy(before, xs)
	if err := limb.BatchInvert(xs); err == nil {
		t.Fatal("batch inverted a zero")
	}
	for i := range xs {
		if !xs[i].Equal(&before[i]) {
			t.Fatal("failed batch invert modified inputs")
		}
	}
}

func TestExpUint(t *testing.T) {
	f := bigField(t)
	for _, e := range []uint64{0, 1, 2, 3, 5, 17, 64} {
		a := randomBig(t, f)
		var ea, got limb.Element
		if err := ea.SetBig(a); err != nil {
			t.Fatal(err)
		}
		got.ExpUint(&ea, e)
		want := f.Exp(a, new(big.Int).SetUint64(e))
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("exp %d mismatch", e)
		}
	}
}

func TestRand(t *testing.T) {
	var a, b limb.Element
	if err := a.Rand(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := b.RandNonZero(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if b.IsZero() {
		t.Fatal("RandNonZero returned zero")
	}
	if !bigField(t).Contains(a.ToBig()) {
		t.Fatal("Rand produced non-canonical residue")
	}
}

// TestElementOpAllocs pins the zero-alloc contract of the per-element hot
// operations, in the internal/obs disabled-path pin style.
func TestElementOpAllocs(t *testing.T) {
	var a, b, z limb.Element
	a.SetUint64(12345678901234567)
	b.SetUint64(98765432109876543)
	var buf [limb.ElementLen]byte
	allocs := testing.AllocsPerRun(1000, func() {
		z.Add(&a, &b)
		z.Sub(&z, &b)
		z.Mul(&z, &a)
		z.Square(&z)
		z.Neg(&z)
		z.PutBytes(buf[:])
	})
	if allocs != 0 {
		t.Errorf("element ops allocate %.1f per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := z.Inv(&a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Inv allocates %.1f per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := z.SetBytes(buf[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SetBytes allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkLimbMul(b *testing.B) {
	var x, y, z limb.Element
	x.SetUint64(0xdeadbeefcafebabe)
	y.SetUint64(0x123456789abcdef0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
}

func BenchmarkLimbSquare(b *testing.B) {
	var x, z limb.Element
	x.SetUint64(0xdeadbeefcafebabe)
	x.Inv(&x) // a full-width residue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
}

func BenchmarkBigMul(b *testing.B) {
	f := field.Default()
	x := new(big.Int).SetUint64(0xdeadbeefcafebabe)
	y := new(big.Int).SetUint64(0x123456789abcdef0)
	x = f.Mul(x, x)
	y = f.Mul(y, y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Mul(x, y)
	}
}

func BenchmarkLimbInv(b *testing.B) {
	var x, z limb.Element
	x.SetUint64(0xdeadbeefcafebabe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := z.Inv(&x); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRandBytesMatchesRandPutBytes pins RandBytes to the reference draw:
// same rng bytes in, same canonical encoding out.
func TestRandBytesMatchesRandPutBytes(t *testing.T) {
	seed := make([]byte, 32*200)
	if _, err := rand.Read(seed); err != nil {
		t.Fatal(err)
	}
	var ref limb.Element
	refRng := bytes.NewReader(seed)
	fastRng := bytes.NewReader(seed)
	var want, got [limb.ElementLen]byte
	for i := 0; i < 200; i++ {
		if err := ref.Rand(refRng); err != nil {
			t.Fatal(err)
		}
		ref.PutBytes(want[:])
		if err := limb.RandBytes(fastRng, got[:]); err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("draw %d: RandBytes %x != Rand+PutBytes %x", i, got, want)
		}
	}
	if err := limb.RandBytes(bytes.NewReader(seed), make([]byte, 31)); err == nil {
		t.Fatal("RandBytes accepted short dst")
	}
}
