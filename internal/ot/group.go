// Package ot implements the oblivious transfer protocols of paper §III-B:
// k-out-of-n transfers in the Naor–Pinkas style over a DDH group, of
// which a 1-out-of-n (and so a 1-out-of-2) is the case k = 1. The
// k-out-of-n form is the primitive OMPE uses to deliver the receiver's m
// genuine evaluations out of M = m·k pairs (§IV-A.3) without revealing
// which indices were genuine.
//
// The Naor–Pinkas core is a batch of random OTs: m 1-out-of-n instances
// share one constraint set and one ephemeral r (the batched form of
// Naor–Pinkas; DESIGN.md §11), and the batch yields a 16-byte key per
// slot instead of encrypting messages (the random-OT form of Asharov et
// al. 2013). A k-out-of-n is one batch of k instances over the same
// messages that sends each message once, under a fresh key that each
// instance carries under its slot key; the IKNP base phase is one batch
// of κ whose keys are the extension's seeds, so it sends no ciphertext
// at all. The k-out-of-n has identical functionality and privacy in the
// honest-but-curious model the paper assumes (the receiver is trusted to
// pick distinct indices; a malicious-receiver variant would need the
// Chu–Tzeng construction the paper cites).
//
// The group is the prime-order subgroup of edwards25519 (internal/
// ec25519), named "x25519"; it is the only one.
//
// On the wire a group element is its 32-byte compressed point encoding,
// and a message's elements are consecutive encodings in one blob, so a
// message's length follows from its element count. Inside the package an
// element is a decoded *ec25519.Point: Group.Decode turns a received
// encoding into one exactly once, and that decode is the validation (an
// encoding of another length, one that is not a curve point, or one of a
// point of small order never reaches the arithmetic) and clears the
// cofactor, so torsion a peer adds to a point reaches no key; all
// Naor–Pinkas arithmetic runs on decoded points; Group.Encode turns a
// whole batch back into encodings at the end with one shared field
// inversion instead of one per element.
package ot

import (
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

// Decode interprets enc as a canonical compressed point P and returns
// its cofactor-cleared multiple [8]·P, which is what every transfer key
// is computed from (DESIGN.md §11). It refuses any other length and the
// eight points of small order, the identity among them, for which [8]·P
// is the identity: [e] of such a point takes at most eight values
// whatever e is, so a peer's small-order PK0, R or C_j would pin the
// transfer keys. The clearing is three doublings. A point of mixed
// order (a subgroup point plus a small-order one) decodes to the [8]
// multiple of its subgroup part, so the torsion a peer adds to what it
// sends reaches no key.
func (Group) Decode(enc []byte) (*ec25519.Point, error) {
	var p ec25519.Point
	cleared := new(ec25519.Point)
	if err := decode(&p, cleared, enc); err != nil {
		return nil, err
	}
	return cleared, nil
}

// decode sets p to the point enc encodes and cleared to [8]·p. The
// receiver keeps p itself for the one element it forms from a received
// one (PK_0 = C_σ − [x]·B).
func decode(p, cleared *ec25519.Point, enc []byte) error {
	if len(enc) != ec25519.PointLen {
		return fmt.Errorf("%w: element of %d bytes, want %d", ErrBadMessage, len(enc), ec25519.PointLen)
	}
	if err := p.Decode(enc); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if cleared.MulByCofactor(p).IsIdentity() {
		return fmt.Errorf("%w: point of small order", ErrBadMessage)
	}
	return nil
}

// Encode returns the encodings of pts, in order and back to back,
// compressing them with one shared field inversion. It fails only on a
// point no operation of the group produces.
func (Group) Encode(pts []*ec25519.Point) ([]byte, error) {
	buf := make([]byte, len(pts)*ec25519.PointLen)
	if err := ec25519.EncodeBatch(buf, pts); err != nil {
		return nil, fmt.Errorf("ot: %w", err)
	}
	return buf, nil
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

// scalarDrawLen is the bytes one RandomScalar reads: 512 bits, so the
// reduction mod L − 1 is within 2^-259 of uniform.
const scalarDrawLen = 64

// scalarRange is L − 1, the number of values RandomScalar draws from.
var scalarRange = new(big.Int).Sub(ec25519.Order(), big.NewInt(1))

// RandomScalar samples a scalar in [1, L) from one read of 64 bytes,
// reduced mod L − 1 and shifted up by one. Every draw consumes exactly 64
// bytes, so the rng's position after a batch of draws, and the
// allocations they make, do not depend on the values drawn.
func (Group) RandomScalar(rng io.Reader) (*big.Int, error) {
	var buf [scalarDrawLen]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return nil, fmt.Errorf("ot: sample scalar: %w", err)
	}
	x := new(big.Int).SetBytes(buf[:])
	x.Mod(x, scalarRange)
	return x.Add(x, big.NewInt(1)), nil
}

// ElementFromSeed finishes the sample: [seed]·B.
func (Group) ElementFromSeed(seed *big.Int) *ec25519.Point {
	return new(ec25519.Point).ScalarBaseMult(seed)
}
