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
// MMO(seed ⊕ tweak(index, i)), the index little-endian over bytes 0–3 and
// the block counter little-endian over bytes 4–7, truncated to size.
func naiveExpand(t *testing.T, size int, seed [16]byte, index int) []byte {
	t.Helper()
	pad := make([]byte, 0, size)
	for off := 0; off < size; off += 16 {
		var tweak [16]byte
		binary.LittleEndian.PutUint32(tweak[0:4], uint32(index))
		binary.LittleEndian.PutUint32(tweak[4:8], uint32(off/16))
		x := seed
		for i := range x {
			x[i] ^= tweak[i]
		}
		y := naiveMMO(t, x)
		pad = append(pad, y[:min(size-off, 16)]...)
	}
	return pad
}

// naiveRowPadAES derives the row pad exactly as pad.go documents it: the
// row itself is the seed, the transfer index the tweak.
func naiveRowPadAES(t *testing.T, size, j int, row []byte) []byte {
	t.Helper()
	return naiveExpand(t, size, [16]byte(row), j)
}

// naiveTreePadAES derives the tree pad per spec: absorb the path keys
// through an MMO Merkle–Damgård chain, then expand the digest with the
// (index, counter) tweak.
func naiveTreePadAES(t *testing.T, size int, path [][]byte, index int) []byte {
	t.Helper()
	var h [16]byte
	for _, k := range path {
		var x [16]byte
		for i := range x {
			x[i] = h[i] ^ k[i]
		}
		h = naiveMMO(t, x)
	}
	return naiveExpand(t, size, h, index)
}

// longPad is a 257-block payload: block 256 is the first whose counter
// does not fit in one byte.
const longPad = 257 * aes.BlockSize

// TestRowPadAESDifferential checks the production AES row pad against the
// naive spec reference across payload sizes and transfer indices.
func TestRowPadAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 15, 16, 17, 31, 32, 33, 48, 64, longPad} {
		for _, j := range []int{0, 1, 255, 1 << 16, 1<<31 - 1} {
			var row [iknpRowBytes]byte
			rng.Read(row[:])
			src := make([]byte, size)
			rng.Read(src)
			got := make([]byte, size)
			rowPadXor(got, src, j, &row)
			want := naiveRowPadAES(t, size, j, row[:])
			for i := range want {
				want[i] ^= src[i]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d j %d: AES row pad diverges from spec reference", size, j)
			}
		}
	}
}

// TestTreePadAESDifferential checks the production AES tree pad against
// the naive spec reference across path depths, indices and sizes.
func TestTreePadAESDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, depth := range []int{1, 2, 5, 9} {
		for _, size := range []int{1, 16, 17, 32, 80, longPad} {
			path := make([][]byte, depth)
			for i := range path {
				path[i] = make([]byte, treeKeyLen)
				rng.Read(path[i])
			}
			src := make([]byte, size)
			rng.Read(src)
			got := make([]byte, size)
			treePadXor(got, src, path, 12345)
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

// TestPadBlockCounterDoesNotWrap pins the 32-bit block counter: a one-byte
// counter would hand block 256 of a long payload exactly block 0's pad (a
// two-time pad), for the row pad and the tree pad alike.
func TestPadBlockCounterDoesNotWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var row [iknpRowBytes]byte
	rng.Read(row[:])
	path := [][]byte{make([]byte, treeKeyLen), make([]byte, treeKeyLen)}
	rng.Read(path[0])
	rng.Read(path[1])
	zero := make([]byte, longPad)
	for name, pad := range map[string]func(dst []byte){
		"row":  func(dst []byte) { rowPadXor(dst, zero, 3, &row) },
		"tree": func(dst []byte) { treePadXor(dst, zero, path, 3) },
	} {
		got := make([]byte, longPad)
		pad(got)
		if bytes.Equal(got[256*aes.BlockSize:], got[:aes.BlockSize]) {
			t.Errorf("%s pad: block 256 repeats block 0", name)
		}
	}
}
