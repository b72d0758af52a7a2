package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// PadFunc names the symmetric pad family a session's OT extension uses for
// its correlation-robust row hashes and tree-key pads. It is negotiated in
// the transport Hello alongside the group and field backend: the client
// offers a set, the server grants one, and both endpoints must derive
// identical pads or every transfer decrypts to garbage.
//
//   - PadSHA256 is the default pad: one SHA-256 compression per row/tree
//     pad (rowHashXor, treePadXor). It is implied when a Hello offers no
//     pad.
//   - PadAES is the fixed-key AES pad: a single AES-128 call per 16-byte
//     block through a Matyas–Meyer–Oseas compression under one process-wide
//     fixed key (crypto/aes, AES-NI on amd64). Security rests on the usual
//     fixed-key-AES-as-random-permutation model for correlation-robust
//     hashing from the OT-extension literature (Guo et al. 2019 analyze
//     exactly this family); the semi-honest setting here needs nothing
//     stronger. It exists because the SHA-256 pads dominate the serving
//     profile once field arithmetic runs on the limb backend.
type PadFunc string

const (
	// PadSHA256 is the legacy SHA-256 pad (the zero value "" means the
	// same, so un-negotiated sessions land here).
	PadSHA256 PadFunc = "sha256"
	// PadAES is the fixed-key AES-128 MMO pad.
	PadAES PadFunc = "aes"
)

// ErrPadFunc reports an unknown or un-offered pad function.
var ErrPadFunc = errors.New("ot: unsupported pad function")

// ResolvePad maps a flag/wire string to a PadFunc ("" selects the legacy
// SHA-256 pad).
func ResolvePad(name string) (PadFunc, error) {
	switch name {
	case "", string(PadSHA256):
		return PadSHA256, nil
	case string(PadAES):
		return PadAES, nil
	}
	return "", fmt.Errorf("%w: %q", ErrPadFunc, name)
}

// SupportedPads lists every pad this build implements, preference-last
// (legacy first) so an unordered membership check reads naturally.
func SupportedPads() []string {
	return []string{string(PadSHA256), string(PadAES)}
}

// rowPadXor writes dst = src ⊕ H_pad(j, row) for one extended transfer.
func (p PadFunc) rowPadXor(dst, src []byte, j int, row []byte) {
	if p == PadAES {
		rowPadXorAES(dst, src, j, row)
		return
	}
	rowHashXor(dst, src, j, row)
}

// treePadXor writes dst = src ⊕ pad(path, index) for one tree ciphertext.
func (p PadFunc) treePadXor(dst, src []byte, path [][]byte, index int) {
	if p == PadAES {
		treePadXorAES(dst, src, path, index)
		return
	}
	treePadXor(dst, src, path, index)
}

// padAESKey fixes the process-wide AES key: pads need no secrecy in the
// key itself (the row/path inputs carry the secret), only a public random
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

// mmoBlock computes one MMO compression into dst (dst may alias x). Used
// by tests and one-off derivations; the hot loops drive mmoScratch
// directly.
func mmoBlock(dst, x *[aes.BlockSize]byte) {
	s := mmoPool.Get().(*mmoScratch)
	s.x = *x
	s.compress()
	*dst = s.y
	mmoPool.Put(s)
}

// rowPadXorAES is the AES row pad: block i of the pad is the MMO
// compression of the 16-byte row with the tweak (j, i) folded in, so one
// AES call covers a 16-byte payload (the tree keys every fast-session
// transfer actually carries) and two cover a 32-byte field element.
func rowPadXorAES(dst, src []byte, j int, row []byte) {
	if len(row) != iknpRowBytes {
		// Row width is fixed by the extension; anything else is a caller
		// bug, but fall back to the generic derivation rather than panic.
		rowHashXor(dst, src, j, row)
		return
	}
	s := mmoPool.Get().(*mmoScratch)
	for off := 0; off < len(src); off += aes.BlockSize {
		copy(s.x[:], row)
		s.x[0] ^= byte(uint32(j))
		s.x[1] ^= byte(uint32(j) >> 8)
		s.x[2] ^= byte(uint32(j) >> 16)
		s.x[3] ^= byte(uint32(j) >> 24)
		s.x[4] ^= byte(off / aes.BlockSize)
		s.compress()
		n := len(src) - off
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for b := 0; b < n; b++ {
			dst[off+b] = src[off+b] ^ s.y[b]
		}
	}
	mmoPool.Put(s)
}

// treePadXorAES is the AES tree pad: the path keys are absorbed through an
// MMO Merkle–Damgård chain (one AES call per 16-byte level key), then the
// digest is expanded with the (index, counter) tweak — one more AES call
// per 16 payload bytes.
func treePadXorAES(dst, src []byte, path [][]byte, index int) {
	for _, k := range path {
		if len(k) != treeKeyLen {
			// Tree keys are fixed-width by construction; fall back to the
			// generic SHA derivation for robustness on malformed input.
			treePadXor(dst, src, path, index)
			return
		}
	}
	s := mmoPool.Get().(*mmoScratch)
	var h [aes.BlockSize]byte
	for _, k := range path {
		for i := 0; i < aes.BlockSize; i++ {
			s.x[i] = h[i] ^ k[i]
		}
		s.compress()
		h = s.y
	}
	for off := 0; off < len(src); off += aes.BlockSize {
		s.x = h
		s.x[0] ^= byte(uint32(index))
		s.x[1] ^= byte(uint32(index) >> 8)
		s.x[2] ^= byte(uint32(index) >> 16)
		s.x[3] ^= byte(uint32(index) >> 24)
		s.x[4] ^= byte(off / aes.BlockSize)
		s.compress()
		n := len(src) - off
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for b := 0; b < n; b++ {
			dst[off+b] = src[off+b] ^ s.y[b]
		}
	}
	mmoPool.Put(s)
}
