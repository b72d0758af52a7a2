package ot

import "math/bits"

// Tree pads: in the extension's k-of-n expansion (extkofn.go) message i's
// key is the digest of one key per bit of i in instance 0's tree
// (pathDigests, pad.go), and every other instance encrypts it under a pad
// seeded by its own digest of i, so a receiver holding the keys on its
// own index's path opens exactly that message.

// treeKeyLen is the length of a tree key, a message key, a Naor–Pinkas
// slot key and so an IKNP base seed.
const treeKeyLen = 16

// treeDepth is the number of index bits, one key pair per bit.
func treeDepth(n int) int {
	return bits.Len(uint(n - 1))
}
