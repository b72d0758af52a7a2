package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The OT extension's correlation-robust row hashes (iknp.go) and its
// tree-key pads (extkofn.go) are one construction: a Matyas–Meyer–Oseas
// compression y = E(x) ⊕ x under one process-wide fixed AES-128 key
// (crypto/aes, AES-NI on amd64), a single AES call per 16-byte block.
// Security rests on the usual fixed-key-AES-as-random-permutation model
// for correlation-robust hashing from the OT-extension literature (Guo et
// al. 2019 analyze exactly this family); the semi-honest setting here
// needs nothing stronger.

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

// xorPad writes dst = src ⊕ pad, where block i of the pad is the MMO
// compression of seed with the tweak (index, i) folded in: index as a
// little-endian uint32 over bytes 0–3, the block counter i likewise over
// bytes 4–7. The 32-bit counter keeps every block of a payload up to
// 64 GiB distinct.
func (s *mmoScratch) xorPad(dst, src []byte, seed *[aes.BlockSize]byte, index int) {
	for off, i := 0, uint32(0); off < len(src); off, i = off+aes.BlockSize, i+1 {
		s.x = *seed
		binary.LittleEndian.PutUint32(s.x[0:4], binary.LittleEndian.Uint32(s.x[0:4])^uint32(index))
		binary.LittleEndian.PutUint32(s.x[4:8], binary.LittleEndian.Uint32(s.x[4:8])^i)
		s.compress()
		n := min(len(src)-off, aes.BlockSize)
		for b := 0; b < n; b++ {
			dst[off+b] = src[off+b] ^ s.y[b]
		}
	}
}

// rowPadXor writes dst = src ⊕ H(j, row) for one extended transfer: block
// i of H is the MMO compression of the row with the tweak (j, i), so one
// AES call covers a 16-byte payload (the tree keys every fast-session
// transfer carries) and two cover a 32-byte field element.
func rowPadXor(dst, src []byte, j int, row *[iknpRowBytes]byte) {
	s := mmoPool.Get().(*mmoScratch)
	s.xorPad(dst, src, row, j)
	mmoPool.Put(s)
}

// treePadXor writes dst = src ⊕ pad(path, index) for one tree ciphertext:
// the path keys are absorbed through an MMO Merkle–Damgård chain (one AES
// call per level key), then the digest is expanded with the (index,
// counter) tweak. Every key must be treeKeyLen bytes: drawTreeKeys draws
// them at that width and recoverSample rejects any other.
func treePadXor(dst, src []byte, path [][]byte, index int) {
	s := mmoPool.Get().(*mmoScratch)
	var h [aes.BlockSize]byte
	for _, k := range path {
		for i := range s.x {
			s.x[i] = h[i] ^ k[i]
		}
		s.compress()
		h = s.y
	}
	s.xorPad(dst, src, &h, index)
	mmoPool.Put(s)
}
