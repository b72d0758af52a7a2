package ompe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/field/limb"
	"repro/internal/ot"
	"repro/internal/poly"
)

// TestBoundedDrawMatchesRandInt: the drawer's bounded draws read the
// bytes crypto/rand.Int reads and return its value, on the same
// deterministic stream — below for a spread of bounds (powers of two,
// their neighbours, and bounds that reject often), and limbBelowPow2 for
// every amplifier exponent the limb field admits — leaving the stream at
// the same offset, and allocating nothing.
func TestBoundedDrawMatchesRandInt(t *testing.T) {
	const draws = 64
	stream := func(name string) []byte {
		b := make([]byte, 1<<16)
		if _, err := newDetReader(name).Read(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// check runs draw and ref draws times each over two readers of one
	// stream, wanting equal values and equal offsets after every draw.
	check := func(name string, draw func(d *drawer) (*big.Int, error), ref func(r *bytes.Reader) (*big.Int, error)) {
		t.Helper()
		data := stream(name)
		got, want := bytes.NewReader(data), bytes.NewReader(data)
		d := newDrawer(got)
		for i := 0; i < draws; i++ {
			g, err := draw(d)
			if err != nil {
				t.Fatal(err)
			}
			w, err := ref(want)
			if err != nil {
				t.Fatal(err)
			}
			if g.Cmp(w) != 0 || got.Len() != want.Len() {
				t.Fatalf("%s, draw %d: %v at offset %d, crypto/rand.Int %v at offset %d", name, i, g, len(data)-got.Len(), w, len(data)-want.Len())
			}
		}
	}

	bounds := []uint64{1, 2, 3, 6, 17, 18, 255, 256, 257, 1<<32 + 1, 1 << 63}
	for _, max := range bounds {
		check(fmt.Sprintf("below %d", max),
			func(d *drawer) (*big.Int, error) {
				v, err := d.below(max)
				return new(big.Int).SetUint64(v), err
			},
			func(r *bytes.Reader) (*big.Int, error) { return rand.Int(r, new(big.Int).SetUint64(max)) })
	}
	for e := 0; e <= 253; e++ {
		check(fmt.Sprintf("limbBelowPow2 %d", e),
			func(d *drawer) (*big.Int, error) {
				var x limb.Element
				err := d.limbBelowPow2(e, &x)
				return x.ToBig(), err
			},
			func(r *bytes.Reader) (*big.Int, error) { return rand.Int(r, new(big.Int).Lsh(big.NewInt(1), uint(e))) })
	}

	data := stream("allocs")
	r := bytes.NewReader(data)
	d := newDrawer(r)
	var x limb.Element
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(data)
		for _, max := range bounds {
			if _, err := d.below(max); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.limbBelowPow2(253, &x); err != nil {
			t.Fatal(err)
		}
		if err := d.amplifierLimb(DefaultAmplifierBits, &x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("bounded draws allocate %.0f times per run, want 0", allocs)
	}
}

// TestLimbMasksMatchReferenceDraws: drawLimbMasks, the one draw of both
// limb senders, reads per sample what a fresh-amplifier draw
// (drawer.amplifier on math/big) and poly.RandomLimb(rng, D, 0) read, in
// that order, and yields the same amplifier and h; with a pinned
// amplifier it reads only h. Each sample's points are its seed's.
func TestLimbMasksMatchReferenceDraws(t *testing.T) {
	params := limbParams(t, 2)
	total, deg := params.TotalPairs(), params.ComposedDegree()
	seeds := newDetReader("limb-masks-seeds")
	reqs := make([]*EvalRequest, 3)
	for s := range reqs {
		reqs[s] = &EvalRequest{Seed: make([]byte, ot.SeedLen)}
		if _, err := seeds.Read(reqs[s].Seed); err != nil {
			t.Fatal(err)
		}
	}
	for _, pinned := range []*big.Int{nil, big.NewInt(12345)} {
		name := fmt.Sprintf("pinned %v", pinned)
		data := make([]byte, 1<<12)
		if _, err := newDetReader(name).Read(data); err != nil {
			t.Fatal(err)
		}
		got, want := bytes.NewReader(data), bytes.NewReader(data)
		lm, err := drawLimbMasks(params, reqs, pinned, got)
		if err != nil {
			t.Fatal(err)
		}
		for s, req := range reqs {
			amp := pinned
			if amp == nil {
				if amp, err = newDrawer(want).amplifier(params.amplifierBitsOrDefault()); err != nil {
					t.Fatal(err)
				}
			}
			var zero limb.Element
			h, err := poly.RandomLimb(want, deg, &zero)
			if err != nil {
				t.Fatal(err)
			}
			points := make([]limb.Element, total)
			if err := newDrawer(ot.NewKeystream(req.Seed)).distinctNonZeroLimb(points); err != nil {
				t.Fatal(err)
			}
			if lm.amps[s].ToBig().Cmp(amp) != 0 {
				t.Errorf("%s, sample %d: amplifier %v, want %v", name, s, lm.amps[s].ToBig(), amp)
			}
			// M > D distinct points determine a degree-D polynomial.
			for i := range points {
				if lm.points[s*total+i] != points[i] {
					t.Fatalf("%s, sample %d: point %d differs from the seed's", name, s, i)
				}
				var g, w limb.Element
				lm.hs[s].EvalInto(&g, &points[i])
				h.EvalInto(&w, &points[i])
				if g != w {
					t.Fatalf("%s, sample %d: h differs from RandomLimb's at point %d", name, s, i)
				}
			}
		}
		if got.Len() != want.Len() {
			t.Errorf("%s: drawLimbMasks left the stream at offset %d, the reference at %d", name, len(data)-got.Len(), len(data)-want.Len())
		}
	}
}
