package ot

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// Tree-key pads: the extension's k-of-n expansion (extkofn.go) encrypts
// message i under a pad derived from one key per bit of i, so a receiver
// holding the keys on its own index's path decrypts exactly that message.

// treeKeyLen is the length of a tree key (and of an IKNP base seed).
const treeKeyLen = 16

// treeDepth is the number of index bits, one key pair per bit.
func treeDepth(n int) int {
	return bits.Len(uint(n - 1))
}

// treePadPrefix domain-separates the tree-OT pad derivation.
const treePadPrefix = "ppdc-ot-tree-v1"

// treePadXor writes dst = src ⊕ pad(path, index). Pads up to one SHA-256
// output with paths up to 8 levels (n ≤ 256, which covers every OMPE
// decoy set) cost a single compression over a stack buffer; anything
// larger falls back to the counter-mode derivation, whose counter-0 block
// the fast path reproduces exactly.
func treePadXor(dst, src []byte, path [][]byte, index int) {
	if len(src) <= sha256.Size && len(path) <= 8 {
		var buf [len(treePadPrefix) + 8*treeKeyLen + 8]byte
		off := copy(buf[:], treePadPrefix)
		fixed := true
		for _, k := range path {
			if len(k) != treeKeyLen {
				fixed = false
				break
			}
			off += copy(buf[off:], k)
		}
		if fixed {
			binary.BigEndian.PutUint32(buf[off:], uint32(index))
			binary.BigEndian.PutUint32(buf[off+4:], 0)
			sum := sha256.Sum256(buf[:off+8])
			for p := range src {
				dst[p] = src[p] ^ sum[p]
			}
			return
		}
	}
	pad := treePadFromKeys(path, index, len(src))
	for p := range src {
		dst[p] = src[p] ^ pad[p]
	}
}

// treePadFromKeys derives the pad from one key per level, in counter mode
// over SHA-256, domain-separated by the index.
func treePadFromKeys(path [][]byte, index, n int) []byte {
	out := make([]byte, 0, n)
	var block [8]byte
	for counter := uint32(0); len(out) < n; counter++ {
		h := sha256.New()
		h.Write([]byte(treePadPrefix))
		for _, k := range path {
			h.Write(k)
		}
		binary.BigEndian.PutUint32(block[:4], uint32(index))
		binary.BigEndian.PutUint32(block[4:], counter)
		h.Write(block[:])
		out = h.Sum(out)
	}
	return out[:n]
}
