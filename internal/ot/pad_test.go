package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// naiveMMO recomputes the fixed-key Matyas–Meyer–Oseas compression from
// the documented spec with its own cipher instance, independent of the
// production code path.
func naiveMMO(t *testing.T, x [16]byte) [16]byte {
	t.Helper()
	sum := sha256.Sum256([]byte("ppdc-ot-pad-aes-v1"))
	blk, err := aes.NewCipher(sum[:16])
	if err != nil {
		t.Fatal(err)
	}
	var y [16]byte
	blk.Encrypt(y[:], x[:])
	for i := range y {
		y[i] ^= x[i]
	}
	return y
}

// naiveExpand expands a 16-byte seed per spec: block i of the pad is
// MMO(seed ⊕ tweak(index, i, domain)), the index little-endian over bytes
// 0–3, the block counter likewise over bytes 4–7 and the domain over
// bytes 8–11, truncated to size.
func naiveExpand(t *testing.T, size int, seed [16]byte, index int, domain uint32) []byte {
	t.Helper()
	pad := make([]byte, 0, size)
	for off := 0; off < size; off += 16 {
		var tweak [16]byte
		binary.LittleEndian.PutUint32(tweak[0:4], uint32(index))
		binary.LittleEndian.PutUint32(tweak[4:8], uint32(off/16))
		binary.LittleEndian.PutUint32(tweak[8:12], domain)
		x := seed
		for i := range x {
			x[i] ^= tweak[i]
		}
		y := naiveMMO(t, x)
		pad = append(pad, y[:min(size-off, 16)]...)
	}
	return pad
}

// naiveChain absorbs 16-byte keys through an MMO Merkle–Damgård chain.
func naiveChain(t *testing.T, path [][]byte) [16]byte {
	t.Helper()
	var h [16]byte
	for _, k := range path {
		var x [16]byte
		for i := range x {
			x[i] = h[i] ^ k[i]
		}
		h = naiveMMO(t, x)
	}
	return h
}

// naiveTreePadAES derives the tree pad per spec: absorb the path keys
// through the chain, then expand the digest with the (index, counter)
// tweak in the tree domain.
func naiveTreePadAES(t *testing.T, size int, path [][]byte, index int) []byte {
	t.Helper()
	return naiveExpand(t, size, naiveChain(t, path), index, padDomainTree)
}

// longPad is a 257-block payload: block 256 is the first whose counter
// does not fit in one byte.
const longPad = 257 * aes.BlockSize

// TestRowPadAESDifferential checks the production random-OT row key
// H(j, row) against the naive spec reference, one block of the row pad,
// across transfer indices.
func TestRowPadAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, j := range []int{0, 1, 255, 1 << 16, 1<<31 - 1} {
		var row [iknpRowBytes]byte
		rng.Read(row[:])
		got := make([]byte, treeKeyLen)
		rowKey(got, j, &row)
		if want := naiveExpand(t, treeKeyLen, row, j, padDomainTree); !bytes.Equal(got, want) {
			t.Fatalf("j %d: AES row key diverges from spec reference", j)
		}
	}
}

// TestMsgPadAESDifferential checks the once-sent message pad against the
// naive spec reference across payload sizes, and that its domain keeps
// it apart from the tree-domain pad of the same seed and index.
func TestMsgPadAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := new(mmoScratch)
	for _, size := range []int{1, 16, 17, 32, 33, 66, longPad} {
		var key [treeKeyLen]byte
		rng.Read(key[:])
		src := make([]byte, size)
		rng.Read(src)
		got := make([]byte, size)
		s.xorPad(got, src, &key, 11, padDomainMsg)
		want := naiveExpand(t, size, key, 11, padDomainMsg)
		for i := range want {
			want[i] ^= src[i]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: AES message pad diverges from spec reference", size)
		}
		tree := naiveExpand(t, size, key, 11, padDomainTree)
		for i := range tree {
			tree[i] ^= src[i]
		}
		if bytes.Equal(got, tree) {
			t.Fatalf("size %d: message pad equals the tree-domain pad", size)
		}
	}
}

// TestKeystreamAESDifferential checks the public keystream against the
// naive spec reference, the pad of its seed at index 0 in the stream
// domain, read in chunks of every size from 1 to 33 bytes; that it
// differs from the message-domain pad of the same seed; and that reading
// it allocates nothing.
func TestKeystreamAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var seed [SeedLen]byte
	rng.Read(seed[:])
	want := naiveExpand(t, 1000, seed, 0, padDomainStream)
	if bytes.Equal(want, naiveExpand(t, 1000, seed, 0, padDomainMsg)) {
		t.Fatal("keystream equals the message-domain pad of its seed")
	}
	for chunk := 1; chunk <= 33; chunk++ {
		ks := NewKeystream(seed[:])
		var got []byte
		buf := make([]byte, chunk)
		for len(got) < len(want) {
			n, err := ks.Read(buf[:min(chunk, len(want)-len(got))])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunks of %d bytes: keystream diverges from spec reference", chunk)
		}
	}
	ks := NewKeystream(seed[:])
	buf := make([]byte, 100)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ks.Read(buf) }); allocs != 0 {
		t.Fatalf("Read allocates %.0f times, want 0", allocs)
	}
}

// TestTreePadAESDifferential checks the production AES tree pad against
// the naive spec reference across path depths, indices and sizes.
func TestTreePadAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := new(mmoScratch)
	for _, depth := range []int{1, 2, 5, 9} {
		for _, size := range []int{1, 16, 17, 32, 80, longPad} {
			flat := make([]byte, depth*treeKeyLen)
			rng.Read(flat)
			path := make([][]byte, depth)
			for i := range path {
				path[i] = flat[i*treeKeyLen : (i+1)*treeKeyLen]
			}
			src := make([]byte, size)
			rng.Read(src)
			got := make([]byte, size)
			digest := s.pathDigest(flat)
			s.xorPad(got, src, &digest, 12345, padDomainTree)
			want := naiveTreePadAES(t, size, path, 12345)
			for i := range want {
				want[i] ^= src[i]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("depth %d size %d: AES tree pad diverges from spec reference", depth, size)
			}
		}
	}
}

// TestPathDigestsShared checks the sender's prefix-shared digests against
// the naive chain over each index's own path, for every n from 2 to 33:
// index m takes level l's key from k0 or k1 by bit l of m.
func TestPathDigestsShared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(mmoScratch)
	for n := 2; n <= 33; n++ {
		depth := treeDepth(n)
		k0 := make([]byte, depth*treeKeyLen)
		k1 := make([]byte, depth*treeKeyLen)
		rng.Read(k0)
		rng.Read(k1)
		got := make([]byte, n*treeKeyLen)
		s.pathDigests(got, k0, k1, n)
		for m := 0; m < n; m++ {
			path := make([][]byte, depth)
			for l := range path {
				key := k0
				if (m>>l)&1 == 1 {
					key = k1
				}
				path[l] = key[l*treeKeyLen : (l+1)*treeKeyLen]
			}
			want := naiveChain(t, path)
			if !bytes.Equal(got[m*treeKeyLen:(m+1)*treeKeyLen], want[:]) {
				t.Fatalf("n %d index %d: shared digest diverges from its own chain", n, m)
			}
		}
	}
}

// TestPadBlockCounterDoesNotWrap pins the 32-bit block counter: a one-byte
// counter would hand block 256 of a long payload exactly block 0's pad (a
// two-time pad), for the message pad and the tree pad alike.
func TestPadBlockCounterDoesNotWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var key [treeKeyLen]byte
	rng.Read(key[:])
	path := make([]byte, 2*treeKeyLen)
	rng.Read(path)
	zero := make([]byte, longPad)
	s := new(mmoScratch)
	digest := s.pathDigest(path)
	for name, pad := range map[string]func(dst []byte){
		"msg":  func(dst []byte) { s.xorPad(dst, zero, &key, 3, padDomainMsg) },
		"tree": func(dst []byte) { s.xorPad(dst, zero, &digest, 3, padDomainTree) },
	} {
		got := make([]byte, longPad)
		pad(got)
		if bytes.Equal(got[256*aes.BlockSize:], got[:aes.BlockSize]) {
			t.Errorf("%s pad: block 256 repeats block 0", name)
		}
	}
}
