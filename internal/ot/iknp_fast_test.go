package ot

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestTranspose8x8 checks the word-level 8×8 transpose against a per-bit
// reference: element (byte k, bit r) must move to (byte r, bit k).
func TestTranspose8x8(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64()
		got := transpose8x8(x)
		var want uint64
		for k := 0; k < 8; k++ {
			for r := 0; r < 8; r++ {
				bit := (x >> (8*k + r)) & 1
				want |= bit << (8*r + k)
			}
		}
		if got != want {
			t.Fatalf("transpose8x8(%#x) = %#x, want %#x", x, got, want)
		}
		if transpose8x8(got) != x {
			t.Fatalf("transpose8x8 is not an involution at %#x", x)
		}
	}
}

// TestTransposeColumns checks the blocked column→row transpose against a
// naive getBit/setBit reference across awkward row counts.
func TestTransposeColumns(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 129, 300} {
		colBytes := (m + 7) / 8
		cols := make([][]byte, iknpKappa)
		for i := range cols {
			cols[i] = make([]byte, colBytes)
			for b := range cols[i] {
				cols[i][b] = byte(rng.Uint32())
			}
		}
		got := transposeColumns(cols, m)
		want := make([]byte, len(got))
		for j := 0; j < m; j++ {
			row := want[j*iknpRowBytes : (j+1)*iknpRowBytes]
			for i := 0; i < iknpKappa; i++ {
				if getBit(cols[i], j) == 1 {
					setBit(row, i)
				}
			}
		}
		for j := 0; j < m; j++ {
			g := got[j*iknpRowBytes : (j+1)*iknpRowBytes]
			w := want[j*iknpRowBytes : (j+1)*iknpRowBytes]
			if !bytes.Equal(g, w) {
				t.Fatalf("m=%d row %d: got %x, want %x", m, j, g, w)
			}
		}
	}
}
