package ot_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ec25519"
	"repro/internal/ot"
)

// TestX25519GroupByName: the spec's name resolves to the group, whose
// name round-trips (TestGroupByName has the refusals).
func TestX25519GroupByName(t *testing.T) {
	g, err := ot.GroupByName("x25519")
	if err != nil || g != ot.X25519() || g.Name() != "x25519" {
		t.Fatalf("GroupByName(x25519) = %q, %v", g.Name(), err)
	}
}

// encodeAll returns the encodings of the elements, one per element,
// failing the test on an encoder error.
func encodeAll(t *testing.T, g ot.Group, elems ...*ec25519.Point) [][]byte {
	t.Helper()
	blob, err := g.Encode(elems)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != len(elems)*ec25519.PointLen {
		t.Fatalf("%d elements encoded to %d bytes", len(elems), len(blob))
	}
	out := make([][]byte, len(elems))
	for i := range out {
		out[i] = blob[i*ec25519.PointLen : (i+1)*ec25519.PointLen]
	}
	return out
}

// TestX25519GroupOps checks the DDH-group contract the Naor–Pinkas
// construction relies on: ExpG agrees with Exp on the generator's image,
// Mul/Inv cancel, exponent arithmetic is homomorphic, ExpSeed is the
// exponentiation of the sampled element, and every result crosses the
// wire (Encode then Decode) as its cofactor-cleared multiple [8]·P.
func TestX25519GroupOps(t *testing.T) {
	g := ot.X25519()
	a, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ga := g.ExpG(a)
	gb := g.ExpG(b)
	inv := g.Inv(ga)
	id := g.Mul(ga, inv)
	seed, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	el := g.ElementFromSeed(seed)
	pts := []*ec25519.Point{
		g.Exp(ga, b), g.Exp(gb, a), // 0, 1: (g^a)^b == (g^b)^a
		g.Mul(ga, gb), g.ExpG(new(big.Int).Add(a, b)), // 2, 3: g^a · g^b == g^(a+b)
		g.Mul(gb, id), gb, // 4, 5: g^a · (g^a)^{-1} is neutral
		g.ExpSeed(seed, a), g.Exp(el, a), // 6, 7: the seed shortcut
		el, ga,
	}
	w := encodeAll(t, g, pts...)
	for i := 0; i < 8; i += 2 {
		if !bytes.Equal(w[i], w[i+1]) {
			t.Fatalf("group law %d violated: %x != %x", i/2, w[i], w[i+1])
		}
	}
	if bytes.Equal(w[8], w[9]) {
		t.Fatal("sampled element equals g^a")
	}
	for i, x := range w {
		back, err := g.Decode(x)
		if err != nil {
			t.Fatalf("element %d does not decode: %v", i, err)
		}
		again := encodeAll(t, g, back, g.Exp(pts[i], big.NewInt(8)))
		if !bytes.Equal(again[0], again[1]) {
			t.Fatalf("element %d does not decode to [8]·P", i)
		}
	}
	if empty := encodeAll(t, g); len(empty) != 0 {
		t.Fatalf("empty batch encoded to %d elements", len(empty))
	}
}

func TestX25519DecodeRejects(t *testing.T) {
	g := ot.X25519()
	gen := ec25519.Basepoint()
	enc := gen.Bytes()
	for name, x := range map[string][]byte{
		"nil":      nil,
		"31 bytes": enc[1:],
		"33 bytes": append([]byte{0}, enc...),
		"64 bytes": append(append([]byte(nil), enc...), enc...),
	} {
		if _, err := g.Decode(x); !errors.Is(err, ot.ErrBadMessage) {
			t.Fatalf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
	// Scan a few small y: any off-curve y must be rejected.
	rejected := 0
	for v := byte(0); v < 32; v++ {
		y := make([]byte, ec25519.PointLen)
		y[0] = v
		if _, err := g.Decode(y); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no small invalid encodings rejected")
	}
}

// TestIKNPOverX25519 runs the OT extension's curve-based base phase end to
// end: 128 base transfers on edwards25519, then an extended batch.
func TestIKNPOverX25519(t *testing.T) {
	g := ot.X25519()
	send, recv, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	extBatch(t, send, recv, 33, 33)
}

// BenchmarkIKNPBase prices the per-session base phase: κ = 128
// Naor–Pinkas transfers on edwards25519, the setup cost the extension
// amortizes.
func BenchmarkIKNPBase(b *testing.B) {
	g := ot.X25519()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ot.NewIKNP(g, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
