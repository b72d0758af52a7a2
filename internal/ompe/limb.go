package ompe

import (
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/obs"
	"repro/internal/ot"
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

// newReceiverLimb is the limb-engine half of NewReceiver, given the point
// seed NewReceiver drew: same construction and rng draw order (covers,
// subset, decoys in pair order; genuine cover evaluations in the parallel
// region), emitting the same request form. Cover i is g_i(v) = t_i +
// Σ_{l=1..q} a_{i,l}·v^l: all n·q coefficients come from one read, cover
// by cover in ascending degree (the bytes of one Rand each; a zero leading
// one, probability ≈ 2^-250, is redrawn after them), and a genuine record
// sums each coordinate's q products over one power table of its point,
// reduced once.
func newReceiverLimb(params Params, input field.Vec, seed []byte, rng io.Reader) (*Receiver, *EvalRequest, error) {
	n, q := len(input), params.MaskDegree
	lin := make([]limb.Element, n)
	for i, x := range input {
		if err := lin[i].SetBig(x); err != nil {
			return nil, nil, fmt.Errorf("%w: input component %d not in field", ErrParams, i)
		}
	}

	maskSpan := obs.Start(obs.PhaseReceiverMask)
	covers := make([]limb.Element, n*q)
	if err := limb.RandElements(rng, covers); err != nil {
		return nil, nil, err
	}
	for i := q - 1; i < len(covers); i += q {
		if covers[i].IsZero() {
			if err := covers[i].RandNonZero(rng); err != nil {
				return nil, nil, err
			}
		}
	}
	if coverTrace != nil {
		coverTrace(covers)
	}
	maskSpan.End()

	decoySpan := obs.Start(obs.PhaseReceiverDecoy)
	total := params.TotalPairs()
	points := make([]limb.Element, total)
	if err := distinctNonZeroLimb(points, ot.NewKeystream(seed)); err != nil {
		return nil, nil, err
	}
	genuine, err := randomSubset(total, params.GenuineCount(), rng)
	if err != nil {
		return nil, nil, err
	}
	isGenuine := make([]bool, total)
	for _, idx := range genuine {
		isGenuine[idx] = true
	}

	// Serial decoy draws in pair order, then parallel pure-arithmetic
	// cover evaluations — the same stream discipline as the big engine,
	// so the request is deterministic at any worker count.
	stride := packedStride(params.Field, n)
	packed := make([]byte, total*stride)
	for i := 0; i < total; i++ {
		if isGenuine[i] {
			continue
		}
		// A decoy's n components are drawn straight into their wire
		// slots in one read: RandBytes consumes the same rng bytes in the
		// same order, and yields the same canonical encodings, as one
		// Rand+PutBytes per component.
		if err := limb.RandBytes(rng, packed[i*stride:(i+1)*stride]); err != nil {
			return nil, nil, err
		}
	}
	powers := make([]limb.Element, total*q)
	_ = parallel.For(total, func(i int) error {
		if !isGenuine[i] {
			return nil
		}
		rec := packed[i*stride : (i+1)*stride]
		pow := powers[i*q : (i+1)*q]
		pow[0] = points[i]
		for l := 1; l < q; l++ {
			pow[l].Mul(&pow[l-1], &points[i])
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
		return nil
	})
	decoySpan.End()

	r := &Receiver{
		params: params,
		state:  receiverAwaitingSetup,
		query:  query{lpoints: points, genuine: genuine},
	}
	return r, &EvalRequest{Seed: seed, Packed: packed}, nil
}

// coverTrace, when set, sees every sample's cover coefficients, a_{i,1..q}
// cover by cover, as soon as they are drawn. Tests set it to check that no
// two samples share a cover; when nil it costs one comparison.
var coverTrace func(coeffs []limb.Element)

// distinctNonZeroLimb fills out with distinct non-zero limb elements,
// len(out) in one read and then one at a time for any zero or repeat:
// the bytes and result of one RandNonZero per element. A request has a
// few dozen points at most, so a linear rescan beats allocating and
// hashing a dedup map on every query.
func distinctNonZeroLimb(out []limb.Element, rng io.Reader) error {
	n := len(out)
	if err := limb.RandElements(rng, out); err != nil {
		return err
	}
	// The kept prefix never passes the draw it is compacted from.
	kept := 0
	for i := 0; kept < n; i++ {
		var x limb.Element
		if i < n {
			x = out[i]
		} else if err := x.Rand(rng); err != nil {
			return err
		}
		if !x.IsZero() && !slices.Contains(out[:kept], x) {
			out[kept] = x
			kept++
		}
	}
	return nil
}

// flatPool recycles the parsed-record buffers of parseRequestLimb: the
// sender decodes one per sample, and at batch sizes in the tens of
// samples the per-query slice was a measurable share of the serving
// allocation profile. putFlat returns a buffer once the masking pass is
// done with it.
var flatPool sync.Pool

func getFlat(n int) []limb.Element {
	if v := flatPool.Get(); v != nil {
		s := v.([]limb.Element)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]limb.Element, n)
}

func putFlat(s []limb.Element) { flatPool.Put(s) } //nolint:staticcheck // slice header churn is fine here

// parseRequestLimb is parseRequest on the limb engine: it decodes and
// fully validates a shape-checked request into one flat slice, the M
// expanded evaluation points first and then the records, z_i at
// flat[M+i*numVars:]. The slice comes from flatPool; callers hand it back
// via putFlat when done.
func parseRequestLimb(params Params, numVars int, req *EvalRequest) ([]limb.Element, error) {
	total := params.TotalPairs()
	flat := getFlat(total * (1 + numVars))
	zs := flat[total:]
	for i := range zs {
		if err := zs[i].SetBytes(req.Packed[i*limb.ElementLen : (i+1)*limb.ElementLen]); err != nil {
			putFlat(flat)
			return nil, componentError(i/numVars, i%numVars)
		}
	}
	if err := distinctNonZeroLimb(flat[:total], ot.NewKeystream(req.Seed)); err != nil {
		putFlat(flat)
		return nil, err
	}
	return flat, nil
}

// maskedSampleLimbWith is the limb engine's sender core for one sample:
// parse and validate the request, then compute every pair's
// y_i = h(v_i) + amp·P(z_i) + shift into a single flat buffer (one
// 32-byte slot per pair). Every rng draw (drawSenderMask) already
// happened, so it can run inside a parallel region; the batch path fans
// samples out across workers, each of which fans its pairs out again.
func maskedSampleLimbWith(params Params, eval Evaluator, h *poly.LimbPoly, amplifier, shift *big.Int, req *EvalRequest) ([][]byte, error) {
	numVars := eval.NumVars()
	flat, err := parseRequestLimb(params, numVars, req)
	if err != nil {
		return nil, err
	}
	var amp, sh limb.Element
	amp.SetBigReduce(amplifier)
	sh.SetBigReduce(shift)

	total := params.TotalPairs()
	points, zs := flat[:total], flat[total:]
	buf := make([]byte, total*limb.ElementLen)
	msgs := make([][]byte, total)
	le, native := eval.(LimbEvaluator)
	f := params.Field
	perr := parallel.For(total, func(i int) error {
		z := zs[i*numVars : (i+1)*numVars]
		var pv, y limb.Element
		if native {
			if err := le.EvalLimb(z, &pv); err != nil {
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
			pv.SetBigReduce(f.Reduce(v))
		}
		h.EvalInto(&y, &points[i])
		pv.Mul(&pv, &amp)
		y.Add(&y, &pv)
		y.Add(&y, &sh)
		m := buf[i*limb.ElementLen : (i+1)*limb.ElementLen]
		y.PutBytes(m)
		msgs[i] = m
		return nil
	})
	putFlat(flat)
	if perr != nil {
		return nil, perr
	}
	return msgs, nil
}
