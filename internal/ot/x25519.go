package ot

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ec25519"
	"repro/internal/obs"
)

// X25519Group adapts the edwards25519 prime-order subgroup (internal/
// ec25519) to the Group interface. On the wire an element is the 32-byte
// compressed point encoding, read as a big-endian *big.Int so that the
// Naor–Pinkas message structs, their wire encodings and the key-derivation
// input are the MODP backends'; in memory it is an *ec25519.Point.
//
// Unit costs on the 2-core reference host: Decode — a square root in the
// field — 7–9 µs, paid once per received element; Encode one field
// inversion per *batch* plus a fraction of a microsecond per element.
// "Exponentiation" is scalar multiplication: 10 µs from the basepoint
// table (ExpG, ExpSeed), 78–89 µs by the ladder for an arbitrary point
// (Exp), and 18–21 µs per exponent from the width-4 table ExpMany builds
// for its base in 0.30–0.46 ms once a batch reaches tableBreakEven
// exponents — against milliseconds for a modp2048 exponentiation.
//
// Random elements are sampled as [s]·B for a secret uniform scalar s, so
// a seed is the element's discrete logarithm and ExpSeed is a table
// lookup: [s·e]·B. The sampler's knowledge of s is harmless — the
// Naor–Pinkas constraint elements are chosen by the sender, about its own
// messages; it is the *receiver* who must not know their logarithms, and
// it sees only the points (DESIGN.md §11). The seed/finish split lets
// batch constructors draw s serially and run the scalar multiplications
// in parallel, keeping wire bytes deterministic at any worker count.
type X25519Group struct{}

// X25519 returns the edwards25519 OT group backend.
func X25519() *X25519Group { return &X25519Group{} }

// Name returns "x25519".
func (g *X25519Group) Name() string { return "x25519" }

// Bits returns the field size (255) of the underlying curve.
func (g *X25519Group) Bits() int { return 255 }

// ElementLen returns the compressed point size (32 bytes).
func (g *X25519Group) ElementLen() int { return ec25519.PointLen }

// Decode interprets a wire integer as a canonical compressed point.
func (g *X25519Group) Decode(x *big.Int) (Element, error) {
	if x == nil || x.Sign() < 0 || x.BitLen() > 8*ec25519.PointLen {
		return nil, fmt.Errorf("%w: element out of range", ErrBadMessage)
	}
	var buf [ec25519.PointLen]byte
	x.FillBytes(buf[:])
	var p ec25519.Point
	if err := p.Decode(buf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return &p, nil
}

// Encode compresses the points with one shared field inversion.
func (g *X25519Group) Encode(elems []Element) ([]*big.Int, error) {
	pts := make([]*ec25519.Point, len(elems))
	for i, e := range elems {
		pts[i] = e.(*ec25519.Point)
	}
	buf := make([]byte, len(pts)*ec25519.PointLen)
	if err := ec25519.EncodeBatch(buf, pts); err != nil {
		return nil, fmt.Errorf("ot: %w", err)
	}
	out := make([]*big.Int, len(pts))
	for i := range out {
		out[i] = new(big.Int).SetBytes(buf[i*ec25519.PointLen : (i+1)*ec25519.PointLen])
	}
	return out, nil
}

// Exp returns [e]·base.
func (g *X25519Group) Exp(base Element, e *big.Int) Element {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarMult(e, base.(*ec25519.Point))
}

// tableBreakEven is the batch size from which ExpMany builds a width-4
// table for its base instead of running the ladder per exponent. On the
// 2-core reference host (BenchmarkTableBuild/w=4, BenchmarkTableMult/w=4
// and BenchmarkScalarMult in internal/ec25519, three runs each) the table
// costs 0.30–0.46 ms to build and 15–21 µs per multiplication against
// 67–89 µs for the ladder, so it pays for itself from 5–8
// multiplications. The IKNP base phase's 128 always take it, as does the
// similarity area round's 9-of-18; its 3-of-6 dot rounds stay on the
// ladder.
const tableBreakEven = 8

// ExpMany returns [e]·base for each exponent: by the ladder below
// tableBreakEven exponents, from one width-4 table of base from there on.
func (g *X25519Group) ExpMany(base Element, es []*big.Int) []Element {
	obs.Add(obs.CtrGroupExp, int64(len(es)))
	p := base.(*ec25519.Point)
	out := make([]Element, len(es))
	if len(es) < tableBreakEven {
		for i, e := range es {
			out[i] = new(ec25519.Point).ScalarMult(e, p)
		}
		return out
	}
	tab := ec25519.NewTable(p, 4)
	for i, e := range es {
		out[i] = new(ec25519.Point).ScalarMultTable(e, tab)
	}
	return out
}

// ExpG returns [e]·B via the fixed-base table.
func (g *X25519Group) ExpG(e *big.Int) Element {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarBaseMult(e)
}

// ExpSeed returns [e]·([seed]·B) = [seed·e]·B via the fixed-base table.
func (g *X25519Group) ExpSeed(seed, e *big.Int) Element {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarBaseMult(new(big.Int).Mul(seed, e))
}

// Mul returns the point sum a + b.
func (g *X25519Group) Mul(a, b Element) Element {
	return new(ec25519.Point).Add(a.(*ec25519.Point), b.(*ec25519.Point))
}

// Inv returns the point negation −a.
func (g *X25519Group) Inv(a Element) Element {
	return new(ec25519.Point).Neg(a.(*ec25519.Point))
}

// RandomScalar samples a uniform scalar in [1, L).
func (g *X25519Group) RandomScalar(rng io.Reader) (*big.Int, error) {
	lm1 := new(big.Int).Sub(ec25519.Order(), big.NewInt(1))
	x, err := rand.Int(rng, lm1)
	if err != nil {
		return nil, fmt.Errorf("ot: sample scalar: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// RandomElementSeed draws the secret scalar behind a random element.
func (g *X25519Group) RandomElementSeed(rng io.Reader) (*big.Int, error) {
	return g.RandomScalar(rng)
}

// ElementFromSeed finishes the sample: [seed]·B.
func (g *X25519Group) ElementFromSeed(seed *big.Int) Element {
	return new(ec25519.Point).ScalarBaseMult(seed)
}
