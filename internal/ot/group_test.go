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

// encodeAll returns the wire integers of the elements, failing the test on
// an encoder error.
func encodeAll(t *testing.T, g ot.Group, elems ...*ec25519.Point) []*big.Int {
	t.Helper()
	wire, err := g.Encode(elems)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestX25519GroupOps checks the DDH-group contract the Naor–Pinkas
// construction relies on: ExpG agrees with Exp on the generator's image,
// Mul/Inv cancel, exponent arithmetic is homomorphic, ExpSeed is the
// exponentiation of the sampled element, and every result survives the
// wire (Encode then Decode) unchanged.
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
	w := encodeAll(t, g,
		g.Exp(ga, b), g.Exp(gb, a), // 0, 1: (g^a)^b == (g^b)^a
		g.Mul(ga, gb), g.ExpG(new(big.Int).Add(a, b)), // 2, 3: g^a · g^b == g^(a+b)
		g.Mul(gb, id), gb, // 4, 5: g^a · (g^a)^{-1} is neutral
		g.ExpSeed(seed, a), g.Exp(el, a), // 6, 7: the seed shortcut
		el, ga)
	for i := 0; i < 8; i += 2 {
		if w[i].Cmp(w[i+1]) != 0 {
			t.Fatalf("group law %d violated: %v != %v", i/2, w[i], w[i+1])
		}
	}
	if w[8].Cmp(w[9]) == 0 {
		t.Fatal("sampled element equals g^a")
	}
	for i, x := range w {
		back, err := g.Decode(x)
		if err != nil {
			t.Fatalf("element %d does not decode: %v", i, err)
		}
		if again := encodeAll(t, g, back); again[0].Cmp(x) != 0 {
			t.Fatalf("element %d changes across decode/encode", i)
		}
	}
	if empty := encodeAll(t, g); len(empty) != 0 {
		t.Fatalf("empty batch encoded to %d integers", len(empty))
	}
}

func TestX25519DecodeRejects(t *testing.T) {
	g := ot.X25519()
	for name, x := range map[string]*big.Int{
		"nil":          nil,
		"out of range": new(big.Int).Lsh(big.NewInt(1), 260),
		"negative":     big.NewInt(-5),
	} {
		if _, err := g.Decode(x); !errors.Is(err, ot.ErrBadMessage) {
			t.Fatalf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
	// Scan a few small integers: any off-curve y must be rejected.
	rejected := 0
	for v := int64(0); v < 32; v++ {
		if _, err := g.Decode(big.NewInt(v)); err != nil {
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
	const m = 33
	choices := make([]int, m)
	x0 := make([][]byte, m)
	x1 := make([][]byte, m)
	for j := 0; j < m; j++ {
		choices[j] = j % 2
		x0[j] = []byte{byte(j), 0xaa}
		x1[j] = []byte{byte(j), 0xbb}
	}
	ext, msg, err := recv.Extend(choices)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := send.Respond(msg, x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ext.Recover(reply)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m; j++ {
		want := x0[j]
		if choices[j] == 1 {
			want = x1[j]
		}
		if !bytes.Equal(got[j], want) {
			t.Fatalf("transfer %d: got %x want %x", j, got[j], want)
		}
	}
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
