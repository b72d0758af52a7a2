package ot

import "math/bits"

// Tree-key pads: the extension's k-of-n expansion (extkofn.go) encrypts
// message i under a pad derived from one key per bit of i (treePadXor,
// pad.go), so a receiver holding the keys on its own index's path
// decrypts exactly that message.

// treeKeyLen is the length of a tree key (and of an IKNP base seed).
const treeKeyLen = 16

// treeDepth is the number of index bits, one key pair per bit.
func treeDepth(n int) int {
	return bits.Len(uint(n - 1))
}
