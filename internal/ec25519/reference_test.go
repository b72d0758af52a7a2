package ec25519

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"repro/internal/field/limb"
)

// The implementations this package shipped before the dedicated doubling,
// the signed-digit ladder and the affine tables, kept as the differential
// oracles for their replacements: the unified addition with
// the 2d multiplication inline, doubling as Add(p, p), the 4-bit windowed
// variable-base multiplication and the 64×15 nibble table.

func refAdd(v, p, q *Point) *Point {
	var a, b, c, d, e, f, g, h, t1, t2 limb.Element
	t1.Sub(&p.y, &p.x)
	t2.Sub(&q.y, &q.x)
	a.Mul(&t1, &t2)
	t1.Add(&p.y, &p.x)
	t2.Add(&q.y, &q.x)
	b.Mul(&t1, &t2)
	c.Mul(&p.t, &constD2)
	c.Mul(&c, &q.t)
	d.Mul(&p.z, &q.z)
	d.Add(&d, &d)
	e.Sub(&b, &a)
	f.Sub(&d, &c)
	g.Add(&d, &c)
	h.Add(&b, &a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.t.Mul(&e, &h)
	v.z.Mul(&f, &g)
	return v
}

func refDouble(v, p *Point) *Point { return refAdd(v, p, p) }

func refScalarMult(v *Point, k *big.Int, p *Point) *Point {
	kk := new(big.Int).Mod(k, orderL)
	var table [15]Point
	table[0].Set(p)
	for i := 1; i < len(table); i++ {
		refAdd(&table[i], &table[i-1], p)
	}
	var buf [PointLen]byte
	kk.FillBytes(buf[:])
	var acc Point
	acc.SetIdentity()
	for _, bt := range buf {
		for _, nib := range [2]byte{bt >> 4, bt & 0xf} {
			for i := 0; i < 4; i++ {
				refDouble(&acc, &acc)
			}
			if nib != 0 {
				refAdd(&acc, &acc, &table[nib-1])
			}
		}
	}
	return v.Set(&acc)
}

var refBaseTable struct {
	once    sync.Once
	windows [2 * PointLen][15]Point
}

func refScalarBaseMult(v *Point, k *big.Int) *Point {
	refBaseTable.once.Do(func() {
		base := basepoint
		for j := range refBaseTable.windows {
			row := &refBaseTable.windows[j]
			row[0].Set(&base)
			for n := 1; n < len(row); n++ {
				refAdd(&row[n], &row[n-1], &base)
			}
			refAdd(&base, &row[len(row)-1], &base)
		}
	})
	kk := new(big.Int).Mod(k, orderL)
	var buf [PointLen]byte
	kk.FillBytes(buf[:])
	var acc Point
	acc.SetIdentity()
	for j := range refBaseTable.windows {
		bt := buf[PointLen-1-j/2]
		nib := (bt >> (4 * uint(j%2))) & 0xf
		if nib != 0 {
			refAdd(&acc, &acc, &refBaseTable.windows[j][nib-1])
		}
	}
	return v.Set(&acc)
}

// mulUnreduced is [k]·p by binary double-and-add with no reduction of k,
// the only way here to multiply a point outside the prime-order subgroup
// by L itself.
func mulUnreduced(k *big.Int, p *Point) *Point {
	var acc Point
	acc.SetIdentity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		refDouble(&acc, &acc)
		if k.Bit(i) == 1 {
			refAdd(&acc, &acc, p)
		}
	}
	return &acc
}

// torsion8 finds a point of order exactly 8: the L-multiple of a decoded
// point is its torsion component, of order 8 for half of all points.
func torsion8(t testing.TB) *Point {
	t.Helper()
	for y := uint64(2); y < 200; y++ {
		var fy limb.Element
		fy.SetUint64(y)
		var p Point
		if p.fromY(&fy, 0) != nil {
			continue
		}
		tor := mulUnreduced(orderL, &p)
		var four Point
		refDouble(&four, refDouble(&four, tor))
		if !four.IsIdentity() {
			return tor
		}
	}
	t.Fatal("no order-8 point found")
	return nil
}

// checkExtended fails unless p is a consistent extended-coordinate point
// of the curve: T·Z = X·Y and −X² + Y² = Z² + d·T².
func checkExtended(t testing.TB, what string, p *Point) {
	t.Helper()
	var l, r, u limb.Element
	l.Mul(&p.t, &p.z)
	r.Mul(&p.x, &p.y)
	if p.z.IsZero() || !l.Equal(&r) {
		t.Fatalf("%s: T·Z != X·Y", what)
	}
	l.Square(&p.y)
	u.Square(&p.x)
	l.Sub(&l, &u)
	r.Square(&p.t)
	r.Mul(&r, &constD)
	u.Square(&p.z)
	r.Add(&r, &u)
	if !l.Equal(&r) {
		t.Fatalf("%s: point off the curve", what)
	}
}

func edgeScalars() []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0), one, big.NewInt(2), big.NewInt(16), big.NewInt(128), big.NewInt(129),
		new(big.Int).Sub(orderL, one),
		new(big.Int).Set(orderL),
		new(big.Int).Add(orderL, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
		new(big.Int).Lsh(one, 252),
		new(big.Int).Sub(new(big.Int).Lsh(one, 252), one),
		big.NewInt(-5),
		new(big.Int).SetBytes(bytes.Repeat([]byte{0x80}, 31)), // every byte digit at the −128/+128 boundary
		new(big.Int).SetBytes(bytes.Repeat([]byte{0x81}, 31)),
		new(big.Int).SetBytes(bytes.Repeat([]byte{0xff}, 31)),
	}
}

func randomScalars(t testing.TB, n int) []*big.Int {
	t.Helper()
	out := make([]*big.Int, n)
	for i := range out {
		k, err := rand.Int(rand.Reader, orderL)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = k
	}
	return out
}

func edgePoints(t testing.TB) map[string]*Point {
	b := basepoint
	var id, negB Point
	id.SetIdentity()
	negB.Neg(&b)
	return map[string]*Point{"identity": &id, "B": &b, "-B": &negB, "torsion8": torsion8(t)}
}

func TestScalarMultMatchesReference(t *testing.T) {
	points := edgePoints(t)
	for i, k := range randomScalars(t, 3) {
		var p Point
		refScalarBaseMult(&p, k)
		points[string(rune('a'+i))] = &p
	}
	// A point with a torsion component: [k mod L] is not [k] there, and
	// both ladders must agree on the former.
	var mixed Point
	refAdd(&mixed, points["a"], points["torsion8"])
	points["mixed"] = &mixed

	scalars := append(edgeScalars(), randomScalars(t, 40)...)
	for name, p := range points {
		for _, k := range scalars {
			var want, got Point
			refScalarMult(&want, k, p)
			if !got.ScalarMult(k, p).Equal(&want) {
				t.Fatalf("[%v]·%s: ladder disagrees with the 4-bit windowed reference", k, name)
			}
			checkExtended(t, "ScalarMult result", &got)
			alias := *p
			if !alias.ScalarMult(k, &alias).Equal(&want) {
				t.Fatalf("[%v]·%s: aliased receiver disagrees", k, name)
			}
		}
	}
}

func TestScalarBaseMultMatchesReference(t *testing.T) {
	b := basepoint
	for _, k := range append(edgeScalars(), randomScalars(t, 200)...) {
		var want, got, viaLadder Point
		refScalarBaseMult(&want, k)
		if !got.ScalarBaseMult(k).Equal(&want) {
			t.Fatalf("[%v]·B: byte table disagrees with the nibble-table reference", k)
		}
		checkExtended(t, "ScalarBaseMult result", &got)
		if !viaLadder.ScalarMult(k, &b).Equal(&want) {
			t.Fatalf("[%v]·B: ladder disagrees with the fixed-base reference", k)
		}
	}
}

// TestScalarMultTableMatchesReference holds the table multiplication to
// the 4-bit windowed reference at every width, on the basepoint, on a
// random point and on a point with a torsion component, across the edge
// scalars (0, 1, L−1, L, unreduced and negative values, every byte at the
// ±128 digit boundary).
func TestScalarMultTableMatchesReference(t *testing.T) {
	var random, mixed Point
	refScalarBaseMult(&random, randomScalars(t, 1)[0])
	refAdd(&mixed, &random, torsion8(t))
	b := basepoint
	points := map[string]*Point{"B": &b, "random": &random, "mixed": &mixed}
	for w := 1; w <= 8; w++ {
		scalars := edgeScalars()
		if w == 4 || w == 8 {
			scalars = append(scalars, randomScalars(t, 40)...)
		}
		for name, p := range points {
			tab := NewTable(p, w)
			for _, k := range scalars {
				var want, got Point
				refScalarMult(&want, k, p)
				if !got.ScalarMultTable(k, tab).Equal(&want) {
					t.Fatalf("w=%d: [%v]·%s: table disagrees with the reference", w, k, name)
				}
				checkExtended(t, "ScalarMultTable result", &got)
			}
		}
	}
}

func TestNewTableRejectsWidth(t *testing.T) {
	for _, w := range []int{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(B, %d) did not panic", w)
				}
			}()
			NewTable(&basepoint, w)
		}()
	}
}

func TestDoubleAndAddMatchReference(t *testing.T) {
	points := edgePoints(t)
	for i, k := range randomScalars(t, 8) {
		var p Point
		// Multiples come out with Z != 1, unlike decoded points.
		refScalarMult(&p, k, points["B"])
		points[string(rune('a'+i))] = &p
	}
	for pn, p := range points {
		var want, got Point
		refDouble(&want, p)
		if !got.Double(p).Equal(&want) {
			t.Fatalf("Double(%s) != Add(p, p) of the reference", pn)
		}
		checkExtended(t, "Double result", &got)
		alias := *p
		if !alias.Double(&alias).Equal(&want) {
			t.Fatalf("Double(%s) with aliased receiver differs", pn)
		}
		for qn, q := range points {
			refAdd(&want, p, q)
			if !got.Add(p, q).Equal(&want) {
				t.Fatalf("%s + %s disagrees with the reference addition", pn, qn)
			}
			checkExtended(t, "Add result", &got)
			alias = *q
			if !alias.Add(p, &alias).Equal(&want) {
				t.Fatalf("%s + %s with v aliasing q differs", pn, qn)
			}
		}
	}
}

func TestEncodeBatchMatchesBytes(t *testing.T) {
	var id Point
	id.SetIdentity()
	pts := []*Point{&id}
	for _, k := range randomScalars(t, 9) {
		var p Point
		p.ScalarBaseMult(k) // Z != 1
		pts = append(pts, &p)
	}
	pts = append(pts, &id, torsion8(t))
	for _, n := range []int{0, 1, 2, len(pts)} {
		batch := pts[:n]
		dst := make([]byte, n*PointLen)
		if err := EncodeBatch(dst, batch); err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		for i, p := range batch {
			if got, want := dst[i*PointLen:(i+1)*PointLen], p.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("batch of %d, point %d: %x, Bytes() gives %x", n, i, got, want)
			}
		}
	}
	// The identity alone, the one-element batch the protocol produces most.
	dst := make([]byte, PointLen)
	if err := EncodeBatch(dst, []*Point{&id}); err != nil || !bytes.Equal(dst, id.Bytes()) {
		t.Fatalf("identity: %x, %v", dst, err)
	}

	if err := EncodeBatch(make([]byte, PointLen+1), pts[:1]); err == nil {
		t.Fatal("accepted a destination of the wrong length")
	}
	// Z = 0 is an error naming the cause, not PutBytes' panic, wherever it
	// sits in the batch; the destination is left alone.
	var broken Point
	broken.SetIdentity()
	broken.z.SetZero()
	for _, batch := range [][]*Point{{&broken}, {pts[1], &broken, pts[2]}} {
		dst := make([]byte, len(batch)*PointLen)
		if err := EncodeBatch(dst, batch); err == nil {
			t.Fatal("encoded a point with Z = 0")
		}
		if !bytes.Equal(dst, make([]byte, len(dst))) {
			t.Fatal("failed batch wrote output")
		}
	}
}

// FuzzScalarMult drives the three multiplications (the ladder, a width-4
// table of the point, the basepoint table) against their references
// with arbitrary scalars (any length, so far beyond L) and arbitrary
// points: the point bytes are decoded when they happen to be a valid
// encoding (which may carry a torsion component) and otherwise hashed
// onto the subgroup as a multiple of B.
func FuzzScalarMult(f *testing.F) {
	f.Add([]byte{}, []byte{1})
	f.Add(orderL.Bytes(), basepoint.Bytes())
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0x80}, 32))
	f.Add(bytes.Repeat([]byte{0x80}, 40), make([]byte, 32)) // y = 0: order 4
	f.Fuzz(func(t *testing.T, rawK, rawP []byte) {
		if len(rawK) > 64 || len(rawP) > 64 {
			return
		}
		k := new(big.Int).SetBytes(rawK)
		var p Point
		if p.Decode(rawP) != nil {
			refScalarBaseMult(&p, new(big.Int).SetBytes(rawP))
		}
		var want, got Point
		refScalarMult(&want, k, &p)
		if !got.ScalarMult(k, &p).Equal(&want) {
			t.Fatalf("[%v]·%x: ladder disagrees with reference", k, p.Bytes())
		}
		checkExtended(t, "ScalarMult result", &got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("equal points encode differently")
		}
		if !got.ScalarMultTable(k, NewTable(&p, 4)).Equal(&want) {
			t.Fatalf("[%v]·%x: width-4 table disagrees with reference", k, p.Bytes())
		}
		checkExtended(t, "ScalarMultTable result", &got)
		refScalarBaseMult(&want, k)
		if !got.ScalarBaseMult(k).Equal(&want) {
			t.Fatalf("[%v]·B: table disagrees with reference", k)
		}
		checkExtended(t, "ScalarBaseMult result", &got)
	})
}
