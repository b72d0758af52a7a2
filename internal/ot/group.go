// Package ot implements the oblivious transfer protocols of paper §III-B:
// k-out-of-n transfers in the Naor–Pinkas style over a DDH group, of
// which a 1-out-of-n (and so a 1-out-of-2) is the case k = 1. The
// k-out-of-n form is the primitive OMPE uses to deliver the receiver's m
// genuine evaluations out of M = m·k pairs (§IV-A.3) without revealing
// which indices were genuine.
//
// The k-out-of-n transfer is realized as one batch of k 1-out-of-n
// instances over the same messages, sharing one constraint set and one
// ephemeral r (the batched form of Naor–Pinkas; DESIGN.md §11). It has
// identical functionality and privacy in the honest-but-curious model the
// paper assumes (the receiver is trusted to pick distinct
// indices; a malicious-receiver variant would need the Chu–Tzeng
// construction the paper cites).
//
// The group is the prime-order subgroup of edwards25519 (internal/
// ec25519), named "x25519"; it is the only one.
//
// On the wire a group element is a *big.Int — the integer of the 32-byte
// compressed point encoding — so message structs, serialization and key
// derivation never see a point. Inside the package it is a decoded
// *ec25519.Point: Group.Decode turns a received integer into one exactly
// once, and that decode is the validation (an integer that is not a
// curve point, or is one of small order, never reaches the arithmetic);
// all Naor–Pinkas arithmetic runs on decoded points; Group.Encode turns
// a whole batch back into wire integers at the end with one shared field
// inversion instead of one per element.
package ot

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ec25519"
	"repro/internal/obs"
)

// ErrUnknownGroup reports a group name other than "x25519".
var ErrUnknownGroup = errors.New("ot: unknown group")

// Group is the DDH group for the Naor–Pinkas transfers: the edwards25519
// prime-order subgroup. Its zero value is ready to use, and it is safe
// for concurrent use; no method modifies a point it is handed.
//
// "Exponentiation" is scalar multiplication. Unit costs on the 2-core
// reference host: Decode — a square root in the field — 7–9 µs, paid
// once per received element; Encode one field inversion per *batch*
// plus a fraction of a microsecond per element; 10 µs from the basepoint
// table (ExpG, ExpSeed), 78–89 µs by the ladder for an arbitrary point
// (Exp), and 18–21 µs per exponent from the width-4 table ExpMany builds
// for its base in 0.30–0.46 ms once a batch reaches tableBreakEven
// exponents.
//
// Random elements are sampled as [s]·B for a secret uniform scalar s, so
// a seed is the element's discrete logarithm and ExpSeed is a table
// lookup: [s·e]·B. The sampler's knowledge of s is harmless — the
// Naor–Pinkas constraint elements are chosen by the sender, about its own
// messages; it is the *receiver* who must not know their logarithms, and
// it sees only the points (DESIGN.md §11). The split between the cheap
// seed draw (RandomScalar, which consumes the rng) and the expensive
// finish (ElementFromSeed, which is pure) lets batch constructors draw
// serially and run the scalar multiplications in parallel, keeping wire
// bytes deterministic at any worker count.
type Group struct{}

// X25519 returns the OT group.
func X25519() Group { return Group{} }

// GroupByName resolves a group by name: "x25519" is the only one, and any
// other name is an error wrapping ErrUnknownGroup.
func GroupByName(name string) (Group, error) {
	if name != "x25519" {
		return Group{}, fmt.Errorf("%w %q", ErrUnknownGroup, name)
	}
	return Group{}, nil
}

// Name returns "x25519".
func (Group) Name() string { return "x25519" }

// ElementLen returns the byte length of a serialized element: the 32-byte
// compressed point.
func (Group) ElementLen() int { return ec25519.PointLen }

// Decode interprets a wire integer as a canonical compressed point and
// refuses the eight points of small order, the identity among them: [e]
// of such a point takes at most eight values whatever e is, so a peer's
// small-order PK0, R or C_j would pin the transfer keys. The check is
// three doublings. A point of mixed order (a subgroup point plus a
// small-order one) still decodes; excluding it needs [L]·P, one ladder
// per received element.
func (Group) Decode(x *big.Int) (*ec25519.Point, error) {
	if x == nil || x.Sign() < 0 || x.BitLen() > 8*ec25519.PointLen {
		return nil, fmt.Errorf("%w: element out of range", ErrBadMessage)
	}
	var buf [ec25519.PointLen]byte
	x.FillBytes(buf[:])
	var p, cleared ec25519.Point
	if err := p.Decode(buf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if cleared.MulByCofactor(&p).IsIdentity() {
		return nil, fmt.Errorf("%w: point of small order", ErrBadMessage)
	}
	return &p, nil
}

// Encode returns the wire integers of pts, in order, compressing them
// with one shared field inversion. It fails only on a point no operation
// of the group produces.
func (Group) Encode(pts []*ec25519.Point) ([]*big.Int, error) {
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
func (Group) Exp(base *ec25519.Point, e *big.Int) *ec25519.Point {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarMult(e, base)
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
func (Group) ExpMany(base *ec25519.Point, es []*big.Int) []*ec25519.Point {
	obs.Add(obs.CtrGroupExp, int64(len(es)))
	out := make([]*ec25519.Point, len(es))
	if len(es) < tableBreakEven {
		for i, e := range es {
			out[i] = new(ec25519.Point).ScalarMult(e, base)
		}
		return out
	}
	tab := ec25519.NewTable(base, 4)
	for i, e := range es {
		out[i] = new(ec25519.Point).ScalarMultTable(e, tab)
	}
	return out
}

// ExpG returns [e]·B via the fixed-base table.
func (Group) ExpG(e *big.Int) *ec25519.Point {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarBaseMult(e)
}

// ExpSeed returns [e]·([seed]·B) = [seed·e]·B via the fixed-base table.
func (Group) ExpSeed(seed, e *big.Int) *ec25519.Point {
	obs.Add(obs.CtrGroupExp, 1)
	return new(ec25519.Point).ScalarBaseMult(new(big.Int).Mul(seed, e))
}

// Mul returns the point sum a + b (the group product, in the
// multiplicative notation of the protocols).
func (Group) Mul(a, b *ec25519.Point) *ec25519.Point {
	return new(ec25519.Point).Add(a, b)
}

// Inv returns the point negation −a.
func (Group) Inv(a *ec25519.Point) *ec25519.Point {
	return new(ec25519.Point).Neg(a)
}

// RandomScalar samples a uniform scalar in [1, L).
func (Group) RandomScalar(rng io.Reader) (*big.Int, error) {
	lm1 := new(big.Int).Sub(ec25519.Order(), big.NewInt(1))
	x, err := rand.Int(rng, lm1)
	if err != nil {
		return nil, fmt.Errorf("ot: sample scalar: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// ElementFromSeed finishes the sample: [seed]·B.
func (Group) ElementFromSeed(seed *big.Int) *ec25519.Point {
	return new(ec25519.Point).ScalarBaseMult(seed)
}
