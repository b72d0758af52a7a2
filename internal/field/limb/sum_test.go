package limb

import (
	"math/big"
	"testing"
)

// TestSumReduceEdges checks Reduce against math/big on accumulator states
// that sums of products reach only after about 2^64 terms: every word
// set, the ninth word at its maximum, and low words one fold short of a
// carry out of the eighth, where the second 1444 is added.
func TestSumReduceEdges(t *testing.T) {
	const max = ^uint64(0)
	states := [][9]uint64{
		{},
		{max, max, max, max, max, max, max, max, max},
		{0, 0, 0, 0, 0, 0, 0, 0, max},
		{max, max, max, max, max, max, max, max, 0},
		{max - 1443, max, max, max, max, max, max, max, 1},
		{max - 1442, max, max, max, max, max, max, max, 1},
		{max, max, max, max, max, max, max, max, 1},
		{p0, p1, p1, p3, p0, p1, p1, p3, 1},
	}
	p := Modulus()
	for _, w := range states {
		want := new(big.Int)
		for i := len(w) - 1; i >= 0; i-- {
			want.Lsh(want, 64).Or(want, new(big.Int).SetUint64(w[i]))
		}
		want.Mod(want, p)
		s := Sum{w: w}
		var z Element
		if got := s.Reduce(&z).ToBig(); got.Cmp(want) != 0 {
			t.Errorf("Reduce(%x) = %v, want %v", w, got, want)
		}
		if s.w != w {
			t.Errorf("Reduce(%x) changed the sum", w)
		}
	}
}
