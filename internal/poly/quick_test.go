package poly_test

// Property-based tests (testing/quick) for the two polynomial invariants
// the OMPE protocol rests on: masking polynomials vanish at zero (and
// receiver covers hit their target there), and mask-then-interpolate
// round trips recover the protocol payload r_a·d(t̃) at v=0.

import (
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/poly"
)

var quickCfg = &quick.Config{MaxCount: 40}

// TestQuickMaskValueAtZero: for random degrees and targets, Random(f,
// rng, deg, 0) is a valid sender mask (h(0)=0, exact degree) and
// Random(f, rng, deg, t) a valid receiver cover (g(0)=t).
func TestQuickMaskValueAtZero(t *testing.T) {
	f := field.Default()
	prop := func(seed int64, degRaw uint8, target int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		deg := int(degRaw%40) + 1
		h, err := poly.Random(f, rng, deg, big.NewInt(0))
		if err != nil {
			t.Logf("mask: %v", err)
			return false
		}
		if h.Eval(big.NewInt(0)).Sign() != 0 {
			t.Logf("h(0) != 0 for degree %d", deg)
			return false
		}
		if h.Degree() != deg {
			t.Logf("mask degree %d, want %d", h.Degree(), deg)
			return false
		}
		ti := f.FromInt64(target)
		g, err := poly.Random(f, rng, deg, ti)
		if err != nil {
			t.Logf("cover: %v", err)
			return false
		}
		if g.Eval(big.NewInt(0)).Cmp(ti) != 0 {
			t.Logf("g(0) != t̃ for degree %d target %d", deg, target)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// distinctNonZero samples n distinct non-zero field elements.
func distinctNonZero(t *testing.T, f *field.Field, rng *mrand.Rand, n int) []*big.Int {
	t.Helper()
	seen := make(map[string]bool, n)
	out := make([]*big.Int, 0, n)
	for len(out) < n {
		v, err := f.RandNonZero(rng)
		if err != nil {
			t.Fatal(err)
		}
		key := v.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, v)
	}
	return out
}

// TestQuickMaskInterpolateRoundTrip: the protocol's core algebra. For
// random degrees and coefficients, build B(v) = h(v) + Q(v) where h is a
// fresh mask (h(0)=0) and Q(0) = r_a·d(t̃) is the amplified payload; then
// D+1 evaluations at distinct non-zero points must interpolate back to
// exactly the payload at v=0 through InterpolateAtZero.
func TestQuickMaskInterpolateRoundTrip(t *testing.T) {
	f := field.Default()
	prop := func(seed int64, pRaw, qRaw uint8, payloadSeed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		// D = p·q as in the protocol (composed degree of B).
		p := int(pRaw%5) + 1
		q := int(qRaw%6) + 1
		deg := p * q

		// The payload r_a·d(t̃): an arbitrary field element.
		payload, err := f.Rand(mrand.New(mrand.NewSource(payloadSeed)))
		if err != nil {
			t.Logf("payload: %v", err)
			return false
		}
		h, err := poly.Random(f, rng, deg, big.NewInt(0))
		if err != nil {
			t.Logf("mask: %v", err)
			return false
		}
		qPoly, err := poly.Random(f, rng, deg, payload)
		if err != nil {
			t.Logf("payload poly: %v", err)
			return false
		}
		nodes := distinctNonZero(t, f, rng, deg+1)
		points := make([]poly.Point, len(nodes))
		for i, v := range nodes {
			points[i] = poly.Point{X: v, Y: f.Add(h.Eval(v), qPoly.Eval(v))}
		}

		got, err := poly.InterpolateAtZero(f, points)
		if err != nil {
			t.Logf("interpolate at zero: %v", err)
			return false
		}
		if got.Cmp(payload) != 0 {
			t.Logf("deg %d: B(0) = %v, want payload %v", deg, got, payload)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInterpolateIdentity: D+1 samples of a random polynomial of
// degree D determine it everywhere, so the mask layer cannot smuggle
// information through interpolation error. Shifting every node by −x0
// makes InterpolateAtZero evaluate the interpolant at x0; it must match
// the polynomial at D+1 fresh points, which pins all its coefficients.
func TestQuickInterpolateIdentity(t *testing.T) {
	f := field.Default()
	prop := func(seed int64, degRaw uint8, v0 int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		deg := int(degRaw%20) + 1
		orig, err := poly.Random(f, rng, deg, f.FromInt64(v0))
		if err != nil {
			t.Logf("random poly: %v", err)
			return false
		}
		nodes := distinctNonZero(t, f, rng, 2*(deg+1))
		samples, probes := nodes[:deg+1], nodes[deg+1:]
		points := make([]poly.Point, len(samples))
		for _, x0 := range probes {
			for i, x := range samples {
				points[i] = poly.Point{X: f.Sub(x, x0), Y: orig.Eval(x)}
			}
			got, err := poly.InterpolateAtZero(f, points)
			if err != nil {
				t.Logf("interpolate: %v", err)
				return false
			}
			if got.Cmp(orig.Eval(x0)) != 0 {
				t.Logf("deg %d: interpolant at %v differs from the polynomial", deg, x0)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}
