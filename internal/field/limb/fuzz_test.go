package limb_test

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
)

// FuzzLimbVsBig differentially checks every limb-field operation against
// the math/big field: two arbitrary 32-byte strings are interpreted as
// (possibly non-canonical) big-endian integers; reduction, encoding,
// decoding, the full arithmetic set and the unreduced Sum must agree
// bit-for-bit with the big.Int reference on the reduced residues.
func FuzzLimbVsBig(f *testing.F) {
	fl := field.Default()
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32))
	f.Add(fl.Modulus().Bytes(), big.NewInt(19).FillBytes(make([]byte, 32)))
	pm1 := new(big.Int).Sub(fl.Modulus(), big.NewInt(1)).Bytes()
	for _, a := range edgeOperands() {
		// Each edge operand against itself and against p − 1.
		raw := a.FillBytes(make([]byte, 32))
		f.Add(raw, raw)
		f.Add(raw, pm1)
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		if len(rawA) > 32 || len(rawB) > 32 {
			return
		}
		ia := new(big.Int).SetBytes(rawA)
		ib := new(big.Int).SetBytes(rawB)

		// Reduce: SetBigReduce must match field.FromBig for arbitrary ints.
		var ea, eb limb.Element
		ea.SetBigReduce(ia)
		eb.SetBigReduce(ib)
		a := fl.FromBig(ia)
		b := fl.FromBig(ib)
		if ea.ToBig().Cmp(a) != 0 || eb.ToBig().Cmp(b) != 0 {
			t.Fatal("reduce disagrees with big field")
		}

		// Decode: canonical acceptance must match field.FromBytes exactly.
		if len(rawA) == 32 {
			var d limb.Element
			limbErr := d.SetBytes(rawA)
			_, bigErr := fl.FromBytes(rawA)
			if (limbErr == nil) != (bigErr == nil) {
				t.Fatalf("canonicality disagreement: limb=%v big=%v", limbErr, bigErr)
			}
			if limbErr == nil && d.ToBig().Cmp(a) != 0 {
				t.Fatal("decode disagrees with big field")
			}
		}

		// Encode: serialized form must be the big field's fixed-width bytes.
		wantBytes, err := fl.Bytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea.Bytes(), wantBytes) {
			t.Fatal("encode disagrees with big field")
		}

		var r limb.Element
		if got, want := r.Add(&ea, &eb).ToBig(), fl.Add(a, b); got.Cmp(want) != 0 {
			t.Fatalf("add: %v vs %v", got, want)
		}
		if got, want := r.Sub(&ea, &eb).ToBig(), fl.Sub(a, b); got.Cmp(want) != 0 {
			t.Fatalf("sub: %v vs %v", got, want)
		}
		if got, want := r.Neg(&ea).ToBig(), fl.Neg(a); got.Cmp(want) != 0 {
			t.Fatalf("neg: %v vs %v", got, want)
		}
		if got, want := r.Mul(&ea, &eb).ToBig(), fl.Mul(a, b); got.Cmp(want) != 0 {
			t.Fatalf("mul: %v vs %v", got, want)
		}

		if got, want := r.Square(&ea).ToBig(), fl.Mul(a, a); got.Cmp(want) != 0 {
			t.Fatalf("square: %v vs %v", got, want)
		}
		// Aliased receiver, and the dedicated squaring against Mul(x, x).
		sq, mm := eb, eb
		if !sq.Square(&sq).Equal(mm.Mul(&mm, &mm)) {
			t.Fatalf("square(b) != mul(b, b) for %v", b)
		}

		// Sum: a + Σ_{i<k} x_i·y_i for k = 1..64 products whose operands
		// cycle through a, b and p − 1, against math/big.
		var pm1 limb.Element
		pm1.SetBigReduce(new(big.Int).Sub(fl.Modulus(), big.NewInt(1)))
		ops := []*limb.Element{&ea, &eb, &pm1}
		k := 1 + int(ea[0]^eb[0])%64
		var s limb.Sum
		s.Add(&ea)
		want := new(big.Int).Set(a)
		for i := 0; i < k; i++ {
			x, y := ops[i%3], ops[(i/3+i)%3]
			s.MulAdd(x, y)
			want.Add(want, new(big.Int).Mul(x.ToBig(), y.ToBig()))
		}
		if got := s.Reduce(&r).ToBig(); got.Cmp(want.Mod(want, fl.Modulus())) != 0 {
			t.Fatalf("sum of %d products: %v vs %v", k, got, want)
		}

		_, limbInvErr := r.Inv(&ea)
		wantInv, bigInvErr := fl.Inv(a)
		if (limbInvErr == nil) != (bigInvErr == nil) {
			t.Fatalf("inv error disagreement: limb=%v big=%v", limbInvErr, bigInvErr)
		}
		if limbInvErr == nil && r.ToBig().Cmp(wantInv) != 0 {
			t.Fatalf("inv: %v vs %v", r.ToBig(), wantInv)
		}
	})
}
