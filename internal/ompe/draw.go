package ompe

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/field/limb"
	"repro/internal/ot"
)

// drawer reads an rng through one buffer it owns. A buffer handed to an
// io.Reader escapes to the heap, so a draw that read into a buffer of its
// own would allocate on every call; a drawer is made once per batch, or
// once per one-shot query, and its draws allocate nothing after that.
// Each method reads exactly the bytes, in the order, of the crypto/rand
// or limb call it stands for, and returns the same value, so switching
// between them moves no wire byte.
type drawer struct {
	rng   io.Reader
	buf   []byte
	small [64]byte
	elem  [limb.ElementLen]byte
}

func newDrawer(rng io.Reader) *drawer {
	d := &drawer{rng: rng}
	d.buf = d.small[:]
	return d
}

// scratch returns k bytes of the drawer's buffer, growing it if needed.
func (d *drawer) scratch(k int) []byte {
	if cap(d.buf) < k {
		d.buf = make([]byte, k)
	}
	return d.buf[:k]
}

// read returns the next k rng bytes, in the drawer's buffer.
func (d *drawer) read(k int) ([]byte, error) {
	b := d.scratch(k)
	if _, err := io.ReadFull(d.rng, b); err != nil {
		return nil, err
	}
	return b, nil
}

// topMask clears the bits of a big-endian value's first byte above
// bitLen, as crypto/rand.Int does before comparing with its bound.
func topMask(bitLen int) byte { return 0xff >> ((8 - bitLen%8) % 8) }

// below returns a uniform integer in [0, max), max ≥ 1, as
// crypto/rand.Int(rng, max) does: ⌈bitlen(max−1)/8⌉ bytes per attempt,
// the first byte masked to bitlen mod 8 bits, redrawn while ≥ max.
func (d *drawer) below(max uint64) (uint64, error) {
	bitLen := bits.Len64(max - 1)
	if bitLen == 0 {
		return 0, nil
	}
	for {
		b, err := d.read((bitLen + 7) / 8)
		if err != nil {
			return 0, err
		}
		b[0] &= topMask(bitLen)
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		if v < max {
			return v, nil
		}
	}
}

// belowPow2 returns the big-endian bytes of a uniform integer in
// [0, 2^e), as crypto/rand.Int(rng, 2^e) reads it: ⌈e/8⌉ bytes, the first
// masked to e mod 8 bits, never redrawn. For e = 0 it reads nothing.
func (d *drawer) belowPow2(e int) ([]byte, error) {
	if e == 0 {
		return nil, nil
	}
	b, err := d.read((e + 7) / 8)
	if err != nil {
		return nil, err
	}
	b[0] &= topMask(e)
	return b, nil
}

// limbBelowPow2 sets out to belowPow2(e), for e ≤ 253.
func (d *drawer) limbBelowPow2(e int, out *limb.Element) error {
	b, err := d.belowPow2(e)
	if err != nil {
		return err
	}
	clear(d.elem[:limb.ElementLen-len(b)])
	copy(d.elem[limb.ElementLen-len(b):], b)
	// Below 2^253, so canonical.
	return out.SetBytes(d.elem[:])
}

// amplifier draws a log-uniform positive amplifier: a uniform exponent e
// in [0, bits), then a uniform value in [2^e, 2^(e+1)). A log-uniform r_a
// makes the amplified value's magnitude scale-free, so a colluding client
// pool cannot even regress on expected magnitudes — the estimates of
// Fig. 5 "keep rambling" at every pool size.
func (d *drawer) amplifier(bits int) (*big.Int, error) {
	e, err := d.below(uint64(bits))
	if err != nil {
		return nil, err
	}
	off, err := d.belowPow2(int(e))
	if err != nil {
		return nil, err
	}
	amp := new(big.Int).SetBytes(off)
	return amp.SetBit(amp, int(e), 1), nil
}

// amplifierLimb is amplifier straight into a limb element, for bits ≤ 253
// (Params.Validate bounds them by the field).
func (d *drawer) amplifierLimb(bits int, out *limb.Element) error {
	e, err := d.below(uint64(bits))
	if err != nil {
		return err
	}
	if err := d.limbBelowPow2(int(e), out); err != nil {
		return err
	}
	// out < 2^e, so setting bit e adds 2^e.
	out[e/64] |= 1 << (e % 64)
	return nil
}

// elements sets every element of dst as limb.RandElements does.
func (d *drawer) elements(dst []limb.Element) error {
	b := d.scratch(len(dst) * limb.ElementLen)
	if err := limb.RandBytes(d.rng, b); err != nil {
		return err
	}
	for i := range dst {
		// RandBytes leaves canonical encodings.
		_ = dst[i].SetBytes(b[i*limb.ElementLen : (i+1)*limb.ElementLen])
	}
	return nil
}

// nonZeroLast redraws the last element of run, a polynomial's leading
// coefficient, while it is zero, as RandNonZero would (probability
// ≈ 2^-250).
func (d *drawer) nonZeroLast(run []limb.Element) error {
	lead := run[len(run)-1:]
	for lead[0].IsZero() {
		if err := d.elements(lead); err != nil {
			return err
		}
	}
	return nil
}

// distinctNonZeroLimb fills out with distinct non-zero elements,
// len(out) in one read and then one at a time for any zero or repeat:
// the bytes and result of one RandNonZero per element. A request has a
// few dozen points at most, so a linear rescan beats hashing a dedup map.
func (d *drawer) distinctNonZeroLimb(out []limb.Element) error {
	n := len(out)
	if err := d.elements(out); err != nil {
		return err
	}
	// The kept prefix never passes the draw it is compacted from, and
	// once the first n draws are used up out[kept] is free.
	kept := 0
	for i := 0; kept < n; i++ {
		if i < n {
			out[kept] = out[i]
		} else if err := d.elements(out[kept : kept+1]); err != nil {
			return err
		}
		if !out[kept].IsZero() && !slices.Contains(out[:kept], out[kept]) {
			kept++
		}
	}
	return nil
}

// subset fills perm with 0..len(perm)−1 and returns a uniform m-subset of
// it, perm[:m], by a partial Fisher–Yates shuffle: the i-th swap takes
// crypto/rand.Int(rng, len(perm)−i)'s draw.
func (d *drawer) subset(perm []int, m int) ([]int, error) {
	n := len(perm)
	if m > n {
		return nil, fmt.Errorf("%w: subset %d of %d", ErrParams, m, n)
	}
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < m; i++ {
		j, err := d.below(uint64(n - i))
		if err != nil {
			return nil, err
		}
		perm[i], perm[i+int(j)] = perm[i+int(j)], perm[i]
	}
	return perm[:m:m], nil
}

// pointExpander expands request seeds into evaluation points on the limb
// engine through one keystream and one buffer, whatever the number of
// seeds: expand is expandPoints on limb elements.
type pointExpander struct {
	ks ot.Keystream
	d  drawer
}

// init points x's drawer at its keystream, with room for total points.
func (x *pointExpander) init(total int) {
	x.d = drawer{rng: &x.ks, buf: make([]byte, total*limb.ElementLen)}
}

func newPointExpander(total int) *pointExpander {
	x := new(pointExpander)
	x.init(total)
	return x
}

// expand sets dst to the len(dst) distinct non-zero points of seed.
func (x *pointExpander) expand(dst []limb.Element, seed []byte) error {
	x.ks.Reset(seed)
	return x.d.distinctNonZeroLimb(dst)
}
