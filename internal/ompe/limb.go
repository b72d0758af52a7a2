package ompe

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// Limb execution engine. Over the 2^255−19 field (Field.SupportsLimb)
// both roles run the entire per-query arithmetic — cover construction,
// decoys, masked evaluations, interpolation — on fixed-width limb
// elements. The protocol semantics are identical: the same residues flow
// through the same construction into the same request records; only
// their in-memory representation changes. Both parties derive the field
// from the public spec, so both pick the same engine without negotiating
// it.

// LimbEvaluator is implemented by evaluators that run natively on limb
// elements: mvpoly.KernelSum, the form of every served model. Senders on
// the limb engine use EvalLimb when available; every other evaluator is
// reached through a bridge that decodes each pair to math/big, calls Eval
// and re-encodes the result.
type LimbEvaluator interface {
	Evaluator
	// EvalLimb evaluates the polynomial at z, writing the result to out.
	// Like Eval it must be safe for concurrent use.
	EvalLimb(z []limb.Element, out *limb.Element) error
}

// limbBackend reports whether the limb engine serves this execution:
// exactly when the field is 2^255−19.
func (p Params) limbBackend() bool { return p.Field.SupportsLimb() }

// limbScratch is one worker's scratch for building limb requests of n
// components, reused from sample to sample. Each sample overwrites every
// part it reads — its input, its covers, its genuine marks, its points'
// keystream — before reading it, so no value crosses from one sample to
// the next.
type limbScratch struct {
	lin       []limb.Element // t_j = α_j, the cover constants
	covers    []limb.Element // a_{j,1..q}, cover by cover
	pow       []limb.Element // v, v², …, v^q of one point
	isGenuine []bool
	pts       pointExpander
	decoySpan obs.Span
}

func newLimbScratch(params Params, n int) *limbScratch {
	q, total := params.MaskDegree, params.TotalPairs()
	sc := new(limbScratch)
	el := make([]limb.Element, n+n*q+q)
	sc.lin, sc.covers, sc.pow = el[:n:n], el[n:n+n*q:n+n*q], el[n+n*q:]
	sc.isGenuine = make([]bool, total)
	sc.pts.init(total)
	return sc
}

// setInput sets the cover constants from an input of n components that
// checkInput accepted, so every component converts.
func (sc *limbScratch) setInput(input field.Vec) {
	for i, x := range input {
		_ = sc.lin[i].SetBig(x)
	}
}

// draw makes one sample's draws, in the order of the serial construction:
// the point seed; the n·q cover coefficients in one read, cover by cover
// in ascending degree (a zero leading one, probability ≈ 2^-250, redrawn
// after them); the genuine subset; then each decoy record's n components
// in one read straight into its slot of packed, in pair order. It
// returns the genuine indices, a prefix of perm.
func (sc *limbScratch) draw(params Params, d *drawer, seed []byte, perm []int, packed []byte) ([]int, error) {
	if _, err := io.ReadFull(d.rng, seed); err != nil {
		return nil, err
	}

	maskSpan := obs.Start(obs.PhaseReceiverMask)
	if err := d.elements(sc.covers); err != nil {
		return nil, err
	}
	q := len(sc.pow)
	for i := q; i <= len(sc.covers); i += q {
		if err := d.nonZeroLast(sc.covers[:i]); err != nil {
			return nil, err
		}
	}
	if coverTrace != nil {
		coverTrace(sc.covers)
	}
	maskSpan.End()

	sc.decoySpan = obs.Start(obs.PhaseReceiverDecoy)
	genuine, err := d.subset(perm, params.GenuineCount())
	if err != nil {
		return nil, err
	}
	clear(sc.isGenuine)
	for _, i := range genuine {
		sc.isGenuine[i] = true
	}
	// A decoy's n components take one read: RandBytes consumes the same
	// rng bytes, and yields the same canonical encodings, as one
	// Rand+PutBytes per component.
	stride := len(sc.lin) * limb.ElementLen
	for i, g := range sc.isGenuine {
		if g {
			continue
		}
		if err := limb.RandBytes(d.rng, packed[i*stride:(i+1)*stride]); err != nil {
			return nil, err
		}
	}
	return genuine, nil
}

// coverRecord writes one genuine record, G(v): coordinate j is
// t_j + Σ_{l=1..q} a_{j,l}·v^l, its q products summed over one power
// table of v and reduced once into pow, q elements of scratch.
func coverRecord(rec []byte, lin, covers, pow []limb.Element, v *limb.Element) {
	q := len(pow)
	pow[0] = *v
	for l := 1; l < q; l++ {
		pow[l].Mul(&pow[l-1], v)
	}
	var y limb.Element
	for j := range lin {
		var s limb.Sum
		s.Add(&lin[j])
		a := covers[j*q : (j+1)*q]
		for l := range a {
			s.MulAdd(&a[l], &pow[l])
		}
		s.Reduce(&y).PutBytes(rec[j*limb.ElementLen : (j+1)*limb.ElementLen])
	}
}

// coverTrace, when set, sees every sample's cover coefficients, a_{i,1..q}
// cover by cover, as soon as they are drawn. Tests set it to check that no
// two samples share a cover; when nil it costs one comparison.
var coverTrace func(coeffs []limb.Element)

// limbMasks is the sender's per-sample state on the limb engine for a
// batch of requests: sample s's amplifier, masking polynomial and
// expanded points (at s·M) — and the shift, the same for every sample.
type limbMasks struct {
	points []limb.Element
	amps   []limb.Element
	hs     []poly.LimbPoly
	shift  limb.Element
}

// drawLimbMasks draws every sample's amplifier and then masking
// polynomial, serially in sample order, into one slab per kind, and
// expands each sample's points from its seed. A non-nil pinned amplifier
// replaces every amplifier draw. The amplifier reads what
// drawer.amplifier reads and h what poly.RandomLimb(rng, D, 0) reads: a
// fresh h with h(0) = 0 and degree D, which cancels at the interpolation
// point and drowns P's coefficients everywhere else (§IV-A.1).
func drawLimbMasks(params Params, reqs []*EvalRequest, pinned *big.Int, rng io.Reader) (*limbMasks, error) {
	total, deg := params.TotalPairs(), params.ComposedDegree()
	d := newDrawer(rng)
	pts := newPointExpander(total)
	coeffs := make([]limb.Element, len(reqs)*(deg+1))
	lm := &limbMasks{
		points: make([]limb.Element, len(reqs)*total),
		amps:   make([]limb.Element, len(reqs)),
		hs:     make([]poly.LimbPoly, len(reqs)),
	}
	for s, req := range reqs {
		if pinned != nil {
			lm.amps[s].SetBigReduce(pinned)
		} else if err := d.amplifierLimb(params.amplifierBitsOrDefault(), &lm.amps[s]); err != nil {
			return nil, err
		}
		// h(0) = 0: the constant term stays the slab's zero.
		h := coeffs[s*(deg+1) : (s+1)*(deg+1)]
		if err := d.elements(h[1:]); err != nil {
			return nil, err
		}
		if err := d.nonZeroLast(h); err != nil {
			return nil, err
		}
		lm.hs[s] = poly.LimbPolyOf(h)
		if err := pts.expand(lm.points[s*total:(s+1)*total], req.Seed); err != nil {
			return nil, err
		}
	}
	return lm, nil
}

// maskLimb is the limb engine's sender core: for every (sample, pair)
// unit of shape-checked requests, in one fan-out, it parses and validates
// the pair's record and writes y_i = h(v_i) + amp·P(z_i) + shift into one
// 32-byte slot. Every draw is already in lm, so nothing here reads an
// rng.
func maskLimb(params Params, eval Evaluator, reqs []*EvalRequest, lm *limbMasks) ([][][]byte, error) {
	numVars, total := eval.NumVars(), params.TotalPairs()
	stride := numVars * limb.ElementLen
	out := make([]byte, len(reqs)*total*limb.ElementLen)
	le, native := eval.(LimbEvaluator)
	// A worker's scratch is one parsed record z and then P(z), which
	// escapes through the LimbEvaluator interface, so it lives here
	// rather than on the stack.
	newScratch := func() []limb.Element { return make([]limb.Element, numVars+1) }
	err := parallel.ForEach(len(reqs)*total, newScratch, func(sc []limb.Element, u int) error {
		s, i := u/total, u%total
		rec := reqs[s].Packed[i*stride : (i+1)*stride]
		z, pv := sc[:numVars], &sc[numVars]
		for j := range z {
			if err := z[j].SetBytes(rec[j*limb.ElementLen : (j+1)*limb.ElementLen]); err != nil {
				return componentError(i, j)
			}
		}
		if native {
			if err := le.EvalLimb(z, pv); err != nil {
				return fmt.Errorf("ompe: evaluate pair %d: %w", i, err)
			}
		} else {
			x := make(field.Vec, numVars)
			for j := range x {
				x[j] = z[j].ToBig()
			}
			v, err := eval.Eval(x)
			if err != nil {
				return fmt.Errorf("ompe: evaluate pair %d: %w", i, err)
			}
			pv.SetBigReduce(v)
		}
		var y limb.Element
		lm.hs[s].EvalInto(&y, &lm.points[u])
		pv.Mul(pv, &lm.amps[s])
		y.Add(&y, pv)
		y.Add(&y, &lm.shift)
		y.PutBytes(out[u*limb.ElementLen:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return msgViews(out, len(reqs), total, limb.ElementLen), nil
}

// msgViews splits a batch's packed evaluations, w bytes each, into the
// per-sample message lists the transfer takes.
func msgViews(out []byte, b, total, w int) [][][]byte {
	views := make([][]byte, b*total)
	for u := range views {
		views[u] = out[u*w : (u+1)*w : (u+1)*w]
	}
	msgs := make([][][]byte, b)
	for s := range msgs {
		msgs[s] = views[s*total : (s+1)*total : (s+1)*total]
	}
	return msgs
}
