package ec25519_test

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/field/limb"
)

// TestBasepointEncoding pins the RFC 8032 compressed basepoint: y = 4/5
// little-endian with an even x, i.e. 0x58 followed by 31 bytes of 0x66.
func TestBasepointEncoding(t *testing.T) {
	b := ec25519.Basepoint()
	enc := b.Bytes()
	want := append([]byte{0x58}, bytes.Repeat([]byte{0x66}, 31)...)
	if !bytes.Equal(enc, want) {
		t.Fatalf("basepoint encoding = %x, want %x", enc, want)
	}
	var d ec25519.Point
	if err := d.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if !d.Equal(&b) {
		t.Fatal("decode(encode(B)) != B")
	}
}

func TestIdentityAndOrder(t *testing.T) {
	b := ec25519.Basepoint()
	var p ec25519.Point
	if !p.ScalarBaseMult(ec25519.Order()).IsIdentity() {
		t.Fatal("L·B != identity (fixed base)")
	}
	if !p.ScalarMult(ec25519.Order(), &b).IsIdentity() {
		t.Fatal("L·B != identity (variable base)")
	}
	if !p.ScalarBaseMult(big.NewInt(1)).Equal(&b) {
		t.Fatal("1·B != B")
	}
	if !p.ScalarMult(big.NewInt(0), &b).IsIdentity() {
		t.Fatal("0·B != identity")
	}
	var id ec25519.Point
	id.SetIdentity()
	enc := id.Bytes()
	var back ec25519.Point
	if err := back.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if !back.IsIdentity() {
		t.Fatal("identity does not round trip")
	}
}

func randScalar(t *testing.T) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, ec25519.Order())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGroupLaws(t *testing.T) {
	b := ec25519.Basepoint()
	ka, kb := randScalar(t), randScalar(t)
	var pa, pb, lhs, rhs ec25519.Point
	pa.ScalarBaseMult(ka)
	pb.ScalarBaseMult(kb)

	// Fixed-base and variable-base multiplication agree.
	if !lhs.ScalarMult(ka, &b).Equal(&pa) {
		t.Fatal("ScalarMult(k, B) != ScalarBaseMult(k)")
	}
	// Commutativity.
	if !lhs.Add(&pa, &pb).Equal(rhs.Add(&pb, &pa)) {
		t.Fatal("addition not commutative")
	}
	// Homomorphism: (ka+kb)·B = ka·B + kb·B.
	sum := new(big.Int).Add(ka, kb)
	if !lhs.ScalarBaseMult(sum).Equal(rhs.Add(&pa, &pb)) {
		t.Fatal("(a+b)·B != a·B + b·B")
	}
	// Inverse: P + (−P) = identity.
	var neg ec25519.Point
	neg.Neg(&pa)
	if !lhs.Add(&pa, &neg).IsIdentity() {
		t.Fatal("P + (−P) != identity")
	}
	// Unified doubling: P + P = 2P via Double.
	if !lhs.Add(&pa, &pa).Equal(rhs.Double(&pa)) {
		t.Fatal("Add(P,P) != Double(P)")
	}
	// Encode/decode round trip for a random point.
	var back ec25519.Point
	if err := back.Decode(pa.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(&pa) {
		t.Fatal("random point does not round trip")
	}
}

// TestMatchesECDH cross-checks the scalar ladder against the standard
// library's X25519 via the birational map u = (1+y)/(1−y): for a clamped
// private key k, the Montgomery u of our [k]B must be crypto/ecdh's
// public key.
func TestMatchesECDH(t *testing.T) {
	curve := ecdh.X25519()
	p := limb.Modulus()
	for i := 0; i < 8; i++ {
		seed := make([]byte, 32)
		if _, err := rand.Read(seed); err != nil {
			t.Fatal(err)
		}
		priv, err := curve.NewPrivateKey(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := priv.PublicKey().Bytes()

		// Apply the X25519 clamping to the little-endian seed, then
		// interpret it as an integer scalar.
		clamped := append([]byte(nil), seed...)
		clamped[0] &= 248
		clamped[31] &= 127
		clamped[31] |= 64
		be := make([]byte, 32)
		for j := range be {
			be[j] = clamped[31-j]
		}
		k := new(big.Int).SetBytes(be)

		var pt ec25519.Point
		pt.ScalarBaseMult(k)
		enc := pt.Bytes()
		// Recover y (little-endian, sign bit stripped).
		yBE := make([]byte, 32)
		for j := range yBE {
			yBE[j] = enc[31-j]
		}
		yBE[0] &= 0x7f
		y := new(big.Int).SetBytes(yBE)
		num := new(big.Int).Add(big.NewInt(1), y)
		den := new(big.Int).Sub(big.NewInt(1), y)
		den.Mod(den, p)
		den.ModInverse(den, p)
		u := num.Mul(num, den)
		u.Mod(u, p)
		uLE := make([]byte, 32)
		u.FillBytes(uLE)
		for l, r := 0, 31; l < r; l, r = l+1, r-1 {
			uLE[l], uLE[r] = uLE[r], uLE[l]
		}
		if !bytes.Equal(uLE, want) {
			t.Fatalf("u(k·B) = %x, ecdh says %x", uLE, want)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	var pt ec25519.Point
	// y = p (non-canonical).
	pLE := make([]byte, 32)
	limbModLE(pLE)
	if err := pt.Decode(pLE); err == nil {
		t.Fatal("accepted y = p")
	}
	// Negative zero: identity y=1 with the sign bit set.
	negZero := make([]byte, 32)
	negZero[0] = 1
	negZero[31] = 0x80
	if err := pt.Decode(negZero); err == nil {
		t.Fatal("accepted negative zero")
	}
	// Wrong length.
	if err := pt.Decode(make([]byte, 31)); err == nil {
		t.Fatal("accepted short encoding")
	}
	// At least one small y must be off-curve (roughly half of all y are).
	rejected := false
	for y := int64(2); y < 20; y++ {
		enc := make([]byte, 32)
		big.NewInt(y).FillBytes(enc)
		for l, r := 0, 31; l < r; l, r = l+1, r-1 {
			enc[l], enc[r] = enc[r], enc[l]
		}
		if err := pt.Decode(enc); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("no off-curve y rejected in [2,20)")
	}
}

func limbModLE(dst []byte) {
	be := limb.Modulus().Bytes()
	for i := range be {
		dst[i] = be[len(be)-1-i]
	}
}

// TestMulByCofactor checks that 8·P of an arbitrary decoded point lands in
// the prime-order subgroup.
func TestMulByCofactor(t *testing.T) {
	var pt ec25519.Point
	found := false
	for i := 0; i < 64 && !found; i++ {
		raw := make([]byte, 32)
		if _, err := rand.Read(raw); err != nil {
			t.Fatal(err)
		}
		if err := pt.Decode(raw); err != nil {
			continue
		}
		found = true
	}
	if !found {
		t.Fatal("no decodable random encoding in 64 tries")
	}
	var q ec25519.Point
	q.MulByCofactor(&pt)
	if !q.ScalarMult(ec25519.Order(), &q).IsIdentity() {
		t.Fatal("8·P not killed by L")
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, ec25519.Order())
	var p ec25519.Point
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMult(k)
	}
}

func BenchmarkScalarMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, ec25519.Order())
	base := ec25519.Basepoint()
	var p ec25519.Point
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ScalarMult(k, &base)
	}
}

// BenchmarkDecode prices what the OT layer pays once per received element.
func BenchmarkDecode(b *testing.B) {
	k, _ := rand.Int(rand.Reader, ec25519.Order())
	var p ec25519.Point
	enc := p.ScalarBaseMult(k).Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode compares one inversion per point with one per batch.
func BenchmarkEncode(b *testing.B) {
	pts := make([]*ec25519.Point, 19)
	for i := range pts {
		k, _ := rand.Int(rand.Reader, ec25519.Order())
		pts[i] = new(ec25519.Point).ScalarBaseMult(k)
	}
	dst := make([]byte, len(pts)*ec25519.PointLen)
	b.Run("per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, p := range pts {
				p.PutBytes(dst[j*ec25519.PointLen:])
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ec25519.EncodeBatch(dst, pts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tableWidths are the widths BenchmarkTableBuild and BenchmarkTableMult
// price: 8 is the basepoint's, 4–6 the candidates for a table built for
// one batch of multiplications.
var tableWidths = []int{4, 5, 6, 8}

func benchPoint(b *testing.B) ec25519.Point {
	k, _ := rand.Int(rand.Reader, ec25519.Order())
	var p ec25519.Point
	p.ScalarBaseMult(k)
	return p
}

// BenchmarkTableBuild prices building the table of one point; together
// with BenchmarkTableMult and BenchmarkScalarMult it sets how many
// multiplications by one point pay for a table.
func BenchmarkTableBuild(b *testing.B) {
	p := benchPoint(b)
	for _, w := range tableWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ec25519.NewTable(&p, w)
			}
		})
	}
}

func BenchmarkTableMult(b *testing.B) {
	p := benchPoint(b)
	k, _ := rand.Int(rand.Reader, ec25519.Order())
	for _, w := range tableWidths {
		tab := ec25519.NewTable(&p, w)
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var v ec25519.Point
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ScalarMultTable(k, tab)
			}
		})
	}
}
