// Package ot implements the oblivious transfer protocols of paper §III-B:
// k-out-of-n transfers in the Naor–Pinkas style over DDH groups, of which
// a 1-out-of-n (and so a 1-out-of-2) is the case k = 1. The k-out-of-n
// form is the primitive OMPE uses to deliver the receiver's m genuine
// evaluations out of M = m·k pairs (§IV-A.3) without revealing which
// indices were genuine.
//
// The k-out-of-n transfer is realized as one batch of k 1-out-of-n
// instances over the same messages, sharing one constraint set and one
// ephemeral r (the batched form of Naor–Pinkas; DESIGN.md §11). It has
// identical functionality and privacy in the honest-but-curious model the
// paper assumes (the receiver is trusted to pick distinct
// indices; a malicious-receiver variant would need the Chu–Tzeng
// construction the paper cites).
//
// Two DDH group backends are provided: the classic safe-prime MODP
// subgroups the paper benchmarks against (ModpGroup), and the edwards25519
// prime-order subgroup (X25519Group), whose scalar multiplications cost
// tens of microseconds instead of milliseconds.
//
// On the wire a group element is a *big.Int — for the curve, the integer
// of the 32-byte compressed point encoding — so message structs,
// serialization and key derivation are backend-agnostic. Inside the
// package it is a decoded Element: Group.Decode turns a received integer
// into one exactly once, and that decode is the validation (an integer
// that is not a group element never reaches the arithmetic); all
// Naor–Pinkas arithmetic runs on decoded elements; Group.Encode turns a
// whole batch back into wire integers at the end, which lets the curve
// share one field inversion across the batch instead of paying one per
// element.
package ot

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Element is a decoded group element. It is opaque to the protocol code
// and meaningful only to the Group that produced it (a *big.Int residue
// for ModpGroup, a curve point for X25519Group); handing a Group an
// Element of another group is a programming error and panics.
type Element any

// Group is a DDH group for the Naor–Pinkas transfers. Scalars are
// *big.Int, elements are decoded Elements between Decode and Encode (see
// the package comment); implementations must be safe for concurrent use
// and never modify an Element they are handed.
//
// Element sampling is split into a cheap seed draw and an expensive
// finish so batch constructors can consume the rng serially — keeping the
// stream, and hence the wire bytes, deterministic at any worker
// count — while fanning the heavy part out to workers:
// RandomElementSeed consumes the rng, ElementFromSeed is pure.
type Group interface {
	// Name returns the flag-friendly group identifier.
	Name() string
	// Bits returns the bit size of the underlying field modulus.
	Bits() int
	// ElementLen returns the fixed byte length of a serialized element.
	ElementLen() int
	// Decode validates a wire integer and returns the element it encodes;
	// anything that is not the canonical encoding of a group element is an
	// error.
	Decode(x *big.Int) (Element, error)
	// Encode returns the wire integers of elems, in order. It fails only
	// on an Element no operation of this Group produces.
	Encode(elems []Element) ([]*big.Int, error)
	// Exp returns base^e (multiplicative notation; scalar multiplication
	// for curve backends).
	Exp(base Element, e *big.Int) Element
	// ExpMany returns base^e for every e in es, in order: one base raised
	// to many exponents, which a backend may answer from a table built
	// for that base once the batch is large enough to pay for it.
	ExpMany(base Element, es []*big.Int) []Element
	// ExpG returns g^e for the group generator, typically via a fixed-base
	// table.
	ExpG(e *big.Int) Element
	// ExpSeed returns ElementFromSeed(seed)^e. A party that drew the seed
	// itself can use it where it would otherwise raise the sampled
	// element to e; a backend whose seeds are discrete logarithms answers
	// from its fixed-base table.
	ExpSeed(seed, e *big.Int) Element
	// Mul returns the group product a·b.
	Mul(a, b Element) Element
	// Inv returns the group inverse of a.
	Inv(a Element) Element
	// RandomScalar samples a uniform non-zero exponent.
	RandomScalar(rng io.Reader) (*big.Int, error)
	// RandomElementSeed draws the serial randomness behind one element.
	RandomElementSeed(rng io.Reader) (*big.Int, error)
	// ElementFromSeed deterministically finishes a seed into a uniform
	// group element. It must be safe to call from multiple goroutines.
	ElementFromSeed(seed *big.Int) Element
}

// ModpGroup is a subgroup of Z_p^* of prime order q = (p-1)/2 for a safe
// prime p, with generator g. All built-in groups use g = 2, which
// generates the order-q subgroup because their primes satisfy p ≡ 7
// (mod 8).
//
// A ModpGroup must be used by pointer (it carries a lazily built
// fixed-base exponentiation table guarded by a sync.Once); all methods
// are safe for concurrent use.
type ModpGroup struct {
	// P is the safe-prime modulus.
	P *big.Int
	// Q is the subgroup order (P-1)/2.
	Q *big.Int
	// G is the subgroup generator.
	G *big.Int

	name string

	fixedBase fixedBaseTable
}

// Built-in group moduli. Group512TestHex offers fast benchmarks and tests
// at toy security; the others are the RFC 2409 / RFC 3526 MODP groups.
const (
	// Group512TestHex is a locally generated 512-bit safe prime. TOY
	// SECURITY — benchmarks and tests only.
	Group512TestHex = "e61075b1c3282dc0ad77be6ffbb3a55b46d9a86430680b1b2b8b7045b2807dd370d5c65159b5ff757373ce1dc53da775de56d86eda471148ec231ead25c4c467"

	// Group1024Hex is the RFC 2409 Oakley Group 2 prime (legacy security).
	Group1024Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
		"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
		"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF"

	// Group1536Hex is the RFC 3526 group 5 prime.
	Group1536Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
		"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
		"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05" +
		"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB" +
		"9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"

	// Group2048Hex is the RFC 3526 group 14 prime.
	Group2048Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
		"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
		"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05" +
		"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB" +
		"9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
		"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718" +
		"3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

var errBadGroupHex = errors.New("ot: invalid built-in group modulus")

func newModpGroup(name, hexP string) *ModpGroup {
	p, ok := new(big.Int).SetString(strings.ToLower(hexP), 16)
	if !ok {
		panic(errBadGroupHex) // compile-time constants, validated by tests
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return &ModpGroup{P: p, Q: q, G: big.NewInt(2), name: name}
}

// Group512Test returns the 512-bit toy group for tests and benchmarks.
func Group512Test() *ModpGroup { return newModpGroup("modp512-test", Group512TestHex) }

// Group1024 returns the RFC 2409 Oakley Group 2 (legacy security).
func Group1024() *ModpGroup { return newModpGroup("modp1024", Group1024Hex) }

// Group1536 returns the RFC 3526 group 5.
func Group1536() *ModpGroup { return newModpGroup("modp1536", Group1536Hex) }

// Group2048 returns the RFC 3526 group 14, the recommended MODP default.
func Group2048() *ModpGroup { return newModpGroup("modp2048", Group2048Hex) }

// GroupByName resolves a group by its flag-friendly name.
func GroupByName(name string) (Group, error) {
	switch name {
	case "modp512-test", "512":
		return Group512Test(), nil
	case "modp1024", "1024":
		return Group1024(), nil
	case "modp1536", "1536":
		return Group1536(), nil
	case "modp2048", "2048":
		return Group2048(), nil
	case "x25519", "25519":
		return X25519(), nil
	default:
		return nil, fmt.Errorf("ot: unknown group %q", name)
	}
}

// GroupNames lists the resolvable group names (canonical spellings), for
// flag help and sweeps.
func GroupNames() []string {
	return []string{"modp512-test", "modp1024", "modp1536", "modp2048", "x25519"}
}

// Name returns the group's identifier.
func (g *ModpGroup) Name() string { return g.name }

// Bits returns the modulus bit length.
func (g *ModpGroup) Bits() int { return g.P.BitLen() }

// ElementLen returns the fixed byte length of a serialized group element.
func (g *ModpGroup) ElementLen() int { return (g.P.BitLen() + 7) / 8 }

// Exp returns base^e mod P.
func (g *ModpGroup) Exp(base Element, e *big.Int) Element {
	obs.Add(obs.CtrGroupExp, 1)
	return new(big.Int).Exp(base.(*big.Int), e, g.P)
}

// ExpMany returns base^e mod P for each exponent; a MODP table for an
// arbitrary base would cost more to build than the exponentiations it
// saves at the batch sizes the protocols use.
func (g *ModpGroup) ExpMany(base Element, es []*big.Int) []Element {
	out := make([]Element, len(es))
	for i, e := range es {
		out[i] = g.Exp(base, e)
	}
	return out
}

// ExpSeed returns (seed²)^e mod P: MODP seeds are not logarithms, so this
// is the generic exponentiation of the sampled element.
func (g *ModpGroup) ExpSeed(seed, e *big.Int) Element {
	return g.Exp(g.ElementFromSeed(seed), e)
}

// fixedBaseWindow is the digit width (bits) of the fixed-base table. Width
// 4 costs (2^4 − 1)·⌈|q|/4⌉ stored elements (≈2 MB for the 2048-bit group,
// built once per Group value) and answers g^e in ⌈|q|/4⌉ modular
// multiplications with no squarings — about 5× fewer multiplications than
// generic square-and-multiply.
const fixedBaseWindow = 4

// fixedBaseTable caches windowed powers of the generator:
// windows[j][v-1] = g^(v·2^(j·w)) for v in [1, 2^w).
type fixedBaseTable struct {
	once    sync.Once
	windows [][]*big.Int
}

func (g *ModpGroup) buildFixedBase() {
	const w = fixedBaseWindow
	nWindows := (g.Q.BitLen() + w - 1) / w
	windows := make([][]*big.Int, nWindows)
	base := new(big.Int).Set(g.G)
	for j := range windows {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = new(big.Int).Set(base)
		for v := 2; v < 1<<w; v++ {
			row[v-1] = g.mulMod(row[v-2], base)
		}
		windows[j] = row
		// Advance to the next window's base: base^(2^w) = base^(2^w−1)·base.
		base = g.mulMod(row[len(row)-1], base)
	}
	g.fixedBase.windows = windows
}

// ExpG returns g^e for e >= 0 using the lazily built fixed-base window
// table. One batch OT run performs a g^r or g^x exponentiation per
// instance; they all share this table. Exponents beyond the subgroup
// order's bit length fall back to generic Exp.
func (g *ModpGroup) ExpG(e *big.Int) Element {
	if e.Sign() < 0 {
		return g.Exp(g.G, e)
	}
	obs.Add(obs.CtrGroupExp, 1)
	g.fixedBase.once.Do(g.buildFixedBase)
	const w = fixedBaseWindow
	windows := g.fixedBase.windows
	if e.BitLen() > len(windows)*w {
		return new(big.Int).Exp(g.G, e, g.P) // already counted above
	}
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for j := 0; j*w < e.BitLen(); j++ {
		v := uint(0)
		for b := 0; b < w; b++ {
			v |= e.Bit(j*w+b) << b
		}
		if v != 0 {
			tmp.Mul(acc, windows[j][v-1])
			acc.Mod(tmp, g.P)
		}
	}
	return acc
}

// Mul returns a*b mod P.
func (g *ModpGroup) Mul(a, b Element) Element {
	return g.mulMod(a.(*big.Int), b.(*big.Int))
}

func (g *ModpGroup) mulMod(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), g.P)
}

// Inv returns a^{-1} mod P (P is prime and a decoded element is in
// [1, P), so the inverse exists).
func (g *ModpGroup) Inv(a Element) Element {
	return new(big.Int).ModInverse(a.(*big.Int), g.P)
}

// Decode accepts the integers in [1, P); the residue is its own element.
func (g *ModpGroup) Decode(x *big.Int) (Element, error) {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.P) >= 0 {
		return nil, fmt.Errorf("%w: element outside [1, p)", ErrBadMessage)
	}
	return x, nil
}

// Encode returns the residues themselves.
func (g *ModpGroup) Encode(elems []Element) ([]*big.Int, error) {
	out := make([]*big.Int, len(elems))
	for i, e := range elems {
		out[i] = e.(*big.Int)
	}
	return out, nil
}

// Equal reports whether two MODP groups share the same parameters.
func (g *ModpGroup) Equal(other *ModpGroup) bool {
	return other != nil && g.P.Cmp(other.P) == 0 && g.G.Cmp(other.G) == 0
}

// RandomScalar samples a uniform exponent in [1, q).
func (g *ModpGroup) RandomScalar(rng io.Reader) (*big.Int, error) {
	qm1 := new(big.Int).Sub(g.Q, big.NewInt(1))
	x, err := rand.Int(rng, qm1)
	if err != nil {
		return nil, fmt.Errorf("ot: sample exponent: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// RandomElementSeed draws a uniform element of Z_p^*; squaring it lands in
// the order-q subgroup (squares form the subgroup for a safe prime).
func (g *ModpGroup) RandomElementSeed(rng io.Reader) (*big.Int, error) {
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	x, err := rand.Int(rng, pm1)
	if err != nil {
		return nil, fmt.Errorf("ot: sample element: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// ElementFromSeed squares the seed into the subgroup.
func (g *ModpGroup) ElementFromSeed(seed *big.Int) Element {
	return g.mulMod(seed, seed)
}
