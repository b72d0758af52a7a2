package limb_test

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
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

// edgeOperands are the canonical residues where a carry, a fold or the final
// subtraction of reduce can go wrong: the small constants of the prime's
// shape, the top of the range ((p − 1)² maximises the high half of the
// product and with it both folds), an all-ones word in each limb (the top
// limb of a canonical residue stops at 2^63 − 1) and the lone high bits.
func edgeOperands() []*big.Int {
	p := limb.Modulus()
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	ops := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19), big.NewInt(38),
		new(big.Int).Sub(p, big.NewInt(1)), // 2^255 − 20
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(p, big.NewInt(19)),
		pow(128), pow(192), pow(254),
	}
	ones := new(big.Int).SetUint64(^uint64(0))
	for i := uint(0); i < limb.Limbs; i++ {
		w := new(big.Int).Lsh(ones, 64*i)
		ops = append(ops, w.And(w, p))
	}
	return ops
}

// TestMulReduceEdges checks every arithmetic operation against math/big on
// the edge operands crossed with themselves and on random pairs, and that
// each result is the canonical residue — not merely a congruent one.
func TestMulReduceEdges(t *testing.T) {
	f := bigField(t)
	p := f.Modulus()
	check := func(op string, a, b *big.Int, got *limb.Element, want *big.Int) {
		t.Helper()
		// ToBig reads the limbs as they are: a congruent result left in
		// [p, 2^256) fails here.
		if g := got.ToBig(); g.Cmp(want) != 0 || g.Cmp(p) >= 0 {
			t.Fatalf("%s(%v, %v) = %v, want %v", op, a, b, g, want)
		}
	}
	pair := func(a, b *big.Int, inv bool) {
		t.Helper()
		var ea, eb, r limb.Element
		if err := ea.SetBig(a); err != nil {
			t.Fatal(err)
		}
		if err := eb.SetBig(b); err != nil {
			t.Fatal(err)
		}
		check("mul", a, b, r.Mul(&ea, &eb), f.Mul(a, b))
		check("square", a, a, r.Square(&ea), f.Mul(a, a))
		check("add", a, b, r.Add(&ea, &eb), f.Add(a, b))
		check("sub", a, b, r.Sub(&ea, &eb), f.Sub(a, b))
		check("neg", a, a, r.Neg(&ea), f.Neg(a))
		if !inv || a.Sign() == 0 {
			return
		}
		if _, err := r.Inv(&ea); err != nil {
			t.Fatal(err)
		}
		want, err := f.Inv(a)
		if err != nil {
			t.Fatal(err)
		}
		check("inv", a, a, &r, want)
	}
	ops := edgeOperands()
	for _, a := range ops {
		for _, b := range ops {
			pair(a, b, true)
		}
	}
	n := 100000
	if testing.Short() {
		n = 2000
	}
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < n; i++ {
		// Inv is 265 dependent multiplications: sample it.
		pair(new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p), i%50 == 0)
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
		if err := limb.BatchInvertScratch(xs, make([]limb.Element, n)); err != nil {
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
	if err := limb.BatchInvertScratch(xs, make([]limb.Element, 3)); err == nil {
		t.Fatal("batch inverted a zero")
	}
	for i := range xs {
		if !xs[i].Equal(&before[i]) {
			t.Fatal("failed batch invert modified inputs")
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
	allocs = testing.AllocsPerRun(1000, func() {
		var s limb.Sum
		s.Add(&a)
		s.MulAdd(&a, &b)
		s.Reduce(&z)
	})
	if allocs != 0 {
		t.Errorf("Sum ops allocate %.1f per run, want 0", allocs)
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

// BenchmarkLimbDot is a dot product of n = 500 full-width terms, the
// shape of a linear trie node or a kernel-form row at madelon width,
// through one Sum against one Mul and Add per term.
func BenchmarkLimbDot(b *testing.B) {
	const n = 500
	xs, ys := make([]limb.Element, n), make([]limb.Element, n)
	for i := range xs {
		if err := xs[i].Rand(rand.Reader); err != nil {
			b.Fatal(err)
		}
		if err := ys[i].Rand(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	var z limb.Element
	b.Run("sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s limb.Sum
			for j := range xs {
				s.MulAdd(&xs[j], &ys[j])
			}
			s.Reduce(&z)
		}
	})
	b.Run("mul-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var acc, t limb.Element
			for j := range xs {
				t.Mul(&xs[j], &ys[j])
				acc.Add(&acc, &t)
			}
			z = acc
		}
	})
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

// TestRandBytesMatchesRandPutBytes pins RandBytes and RandElements to the
// reference draw — same rng bytes in, same canonical encodings and
// residues out as one Rand+PutBytes per slot — at one, two and a decoy
// record's worth of elements, with the
// leading slots set to the integers around each subtraction of the
// reduction (2^256 − 1 and 2p need two).
func TestRandBytesMatchesRandPutBytes(t *testing.T) {
	p := limb.Modulus()
	twoP := new(big.Int).Lsh(p, 1)
	edges := []*big.Int{
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		p, new(big.Int).Sub(p, big.NewInt(1)),
		twoP, new(big.Int).Sub(twoP, big.NewInt(1)),
	}
	for _, k := range []int{1, 2, 500} {
		// Rotating the edges puts each of them in slot 0 of some draw, so
		// k = 1 sees them all.
		for rot := range edges {
			seed := make([]byte, k*limb.ElementLen)
			if _, err := rand.Read(seed); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k && j < len(edges); j++ {
				edges[(j+rot)%len(edges)].FillBytes(seed[j*limb.ElementLen : (j+1)*limb.ElementLen])
			}
			fastRng := bytes.NewReader(seed)
			got := make([]byte, len(seed))
			if err := limb.RandBytes(fastRng, got); err != nil {
				t.Fatal(err)
			}
			if fastRng.Len() != 0 {
				t.Fatalf("k=%d: RandBytes left %d rng bytes unread", k, fastRng.Len())
			}
			elems := make([]limb.Element, k)
			if err := limb.RandElements(bytes.NewReader(seed), elems); err != nil {
				t.Fatal(err)
			}
			refRng := bytes.NewReader(seed)
			var ref limb.Element
			var want [limb.ElementLen]byte
			for j := 0; j < k; j++ {
				if err := ref.Rand(refRng); err != nil {
					t.Fatal(err)
				}
				if elems[j] != ref {
					t.Fatalf("k=%d slot %d: RandElements %x != Rand %x", k, j, elems[j].Bytes(), ref.Bytes())
				}
				ref.PutBytes(want[:])
				slot := got[j*limb.ElementLen : (j+1)*limb.ElementLen]
				if !bytes.Equal(slot, want[:]) {
					t.Fatalf("k=%d slot %d: RandBytes %x != Rand+PutBytes %x", k, j, slot, want)
				}
				in := new(big.Int).SetBytes(seed[j*limb.ElementLen : (j+1)*limb.ElementLen])
				if new(big.Int).SetBytes(slot).Cmp(in.Mod(in, p)) != 0 {
					t.Fatalf("k=%d slot %d: %x is not the draw reduced mod p", k, j, slot)
				}
			}
		}
	}
	if err := limb.RandBytes(bytes.NewReader(make([]byte, 64)), make([]byte, 31)); err == nil {
		t.Fatal("RandBytes accepted a dst that is not a whole number of elements")
	}
	if err := limb.RandBytes(bytes.NewReader(make([]byte, 33)), make([]byte, 64)); err == nil {
		t.Fatal("RandBytes accepted a short rng")
	}
	if err := limb.RandElements(bytes.NewReader(make([]byte, 33)), make([]limb.Element, 2)); err == nil {
		t.Fatal("RandElements accepted a short rng")
	}
}
