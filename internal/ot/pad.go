package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The OT extension's correlation-robust row hash (iknp.go) and the
// extended k-of-n's tree and message pads (extkofn.go) are one
// construction: a Matyas–Meyer–Oseas compression y = E(x) ⊕ x under one
// process-wide fixed AES-128 key (crypto/aes, AES-NI on amd64), a single
// AES call per 16-byte block. Security rests on the usual
// fixed-key-AES-as-random-permutation model for correlation-robust
// hashing from the OT-extension literature (Guo et al. 2019 analyze
// exactly this family); the semi-honest setting here needs nothing
// stronger. The random-OT keys H(j, q_j) and H(j, q_j ⊕ s) rest on it: a
// receiver holding t_j = q_j ⊕ r_j·s must not tell H at the other point
// from random.

// PadFunc names an OT-extension pad family.
//
// Deprecated: every session runs the fixed-key AES pad.
type PadFunc string

// PadAES names the fixed-key AES-128 MMO pad.
//
// Deprecated: it is the only pad; naming it has no effect.
const PadAES PadFunc = "aes"

// padAES fixes the process-wide AES key: pads need no secrecy in the key
// itself (the row/path inputs carry the secret), only a public random
// permutation, so a published constant is exactly right and lets every
// session share one expanded key schedule.
var padAES cipher.Block

func init() {
	sum := sha256.Sum256([]byte("ppdc-ot-pad-aes-v1"))
	blk, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(err) // unreachable: 16-byte key
	}
	padAES = blk
}

// mmoScratch holds the block buffers one pad derivation cycles through.
// cipher.Block is an interface, so any buffer handed to Encrypt escapes;
// keeping the buffers in a pooled heap object turns what would be one
// 16-byte allocation per AES call (over a million per benchmark run) into
// one pool round trip per pad invocation.
type mmoScratch struct {
	x, y [aes.BlockSize]byte
}

var mmoPool = sync.Pool{New: func() any { return new(mmoScratch) }}

// compress computes the Matyas–Meyer–Oseas compression y = E(x) ⊕ x under
// the fixed key, reading s.x and writing s.y.
func (s *mmoScratch) compress() {
	padAES.Encrypt(s.y[:], s.x[:])
	for i := range s.y {
		s.y[i] ^= s.x[i]
	}
}

// Pad domains: the tweak's third word keeps the message pads and the
// public keystream apart from the tree pads and row keys, whose tweak
// leaves it zero.
const (
	padDomainTree   = 0
	padDomainMsg    = 1
	padDomainStream = 2
)

// load sets s.x to seed with the tweak (index, block, domain) folded in:
// index as a little-endian uint32 over bytes 0–3, the block counter
// likewise over bytes 4–7 and the domain over bytes 8–11.
func (s *mmoScratch) load(seed *[aes.BlockSize]byte, index int, block, domain uint32) {
	s.x = *seed
	binary.LittleEndian.PutUint32(s.x[0:4], binary.LittleEndian.Uint32(s.x[0:4])^uint32(index))
	binary.LittleEndian.PutUint32(s.x[4:8], binary.LittleEndian.Uint32(s.x[4:8])^block)
	binary.LittleEndian.PutUint32(s.x[8:12], binary.LittleEndian.Uint32(s.x[8:12])^domain)
}

// xorPad writes dst = src ⊕ pad, where block i of the pad is the MMO
// compression of seed with the tweak (index, i, domain) folded in (load).
// The 32-bit counter keeps every block of a payload up to 64 GiB
// distinct.
func (s *mmoScratch) xorPad(dst, src []byte, seed *[aes.BlockSize]byte, index int, domain uint32) {
	for off, i := 0, uint32(0); off < len(src); off, i = off+aes.BlockSize, i+1 {
		s.load(seed, index, i, domain)
		s.compress()
		n := min(len(src)-off, aes.BlockSize)
		for b := 0; b < n; b++ {
			dst[off+b] = src[off+b] ^ s.y[b]
		}
	}
}

// rowKey writes the 16-byte random-OT key H(j, row) of one extended
// transfer to dst: the MMO compression of the row with the tweak (j, 0)
// folded in, one AES call.
func rowKey(dst []byte, j int, row *[iknpRowBytes]byte) {
	s := mmoPool.Get().(*mmoScratch)
	s.load(row, j, 0, padDomainTree)
	s.compress()
	copy(dst, s.y[:])
	mmoPool.Put(s)
}

// absorb advances an MMO Merkle–Damgård chain by one 16-byte key:
// h ← E(h ⊕ key) ⊕ (h ⊕ key).
func (s *mmoScratch) absorb(h *[aes.BlockSize]byte, key []byte) {
	for i := range s.x {
		s.x[i] = h[i] ^ key[i]
	}
	s.compress()
	*h = s.y
}

// pathDigest absorbs one index's path keys, depth·16 bytes level by
// level, through the MMO chain that seeds its tree pad.
func (s *mmoScratch) pathDigest(path []byte) [aes.BlockSize]byte {
	var h [aes.BlockSize]byte
	for off := 0; off < len(path); off += treeKeyLen {
		s.absorb(&h, path[off:off+treeKeyLen])
	}
	return h
}

// pathDigests writes the path digest of every index m < n of one tree
// into dst (n·16 bytes, index m's at [16m, 16m+16)), given the tree's
// level keys k0 and k1 (depth·16 bytes each; index m takes level l's key
// from k0 or k1 by bit l of m). Digests are shared along low-bit
// prefixes: after level l only min(2^(l+1), n) distinct chains exist, so
// the tree costs Σ_l min(2^(l+1), n) AES calls instead of n·depth, and
// every digest equals pathDigest of its own path. Each level is computed
// in place, highest prefix first, so no chain is overwritten before the
// longer prefixes that extend it have read it.
func (s *mmoScratch) pathDigests(dst, k0, k1 []byte, n int) {
	depth := len(k0) / treeKeyLen
	for l := 0; l < depth; l++ {
		half := 1 << l
		for p := min(2*half, n) - 1; p >= 0; p-- {
			var h [aes.BlockSize]byte
			if l > 0 {
				h = [aes.BlockSize]byte(dst[(p%half)*aes.BlockSize:])
			}
			key := k0
			if p&half != 0 {
				key = k1
			}
			s.absorb(&h, key[l*treeKeyLen:(l+1)*treeKeyLen])
			copy(dst[p*aes.BlockSize:], h[:])
		}
	}
}

// SeedLen is the length of a Keystream seed.
const SeedLen = aes.BlockSize

// Keystream expands a public SeedLen-byte seed into a byte stream, the
// pad xorPad lays over a zero payload at index 0 in padDomainStream, so
// anyone holding the seed reads the same stream: ompe sends a seed in
// place of its evaluation points. A Keystream owns its scratch, so
// reading allocates nothing; its 2^32 blocks, 64 GiB, are distinct.
type Keystream struct {
	s     mmoScratch
	seed  [SeedLen]byte
	block uint32
	off   int // bytes of s.y already read
}

// NewKeystream returns the stream of seed, which must be SeedLen bytes.
func NewKeystream(seed []byte) *Keystream {
	return &Keystream{seed: [SeedLen]byte(seed), off: aes.BlockSize}
}

// Read fills p with the next len(p) bytes of the stream; it never fails.
func (k *Keystream) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if k.off == aes.BlockSize {
			k.s.load(&k.seed, 0, k.block, padDomainStream)
			k.s.compress()
			k.block++
			k.off = 0
		}
		c := copy(p[n:], k.s.y[k.off:])
		k.off += c
		n += c
	}
	return len(p), nil
}

// freshTrace, when set, sees every secret 16-byte input a k-of-n sender
// derives: every Naor–Pinkas slot key (the IKNP base phase's seed pairs
// among them), both random-OT keys of every extended transfer, and every
// path digest of an extended tree. Instance 0's slot keys or digests are
// a k-of-n's message keys K_m. It may be called from several workers at
// once. Tests set it to check that no input ever repeats; it is nil
// otherwise, and the calls it guards allocate nothing.
var freshTrace func(in []byte)
