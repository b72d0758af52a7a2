package ompe

import (
	"fmt"
	"io"
	"math/big"
	"sync"

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

// newReceiverLimb is the limb-engine half of NewReceiver: same construction
// and rng draw order (covers, points, subset, decoys in pair order; genuine
// cover evaluations in the parallel region), emitting the same request
// records.
func newReceiverLimb(params Params, input field.Vec, rng io.Reader) (*Receiver, *EvalRequest, error) {
	n := len(input)
	lin := make([]limb.Element, n)
	for i, x := range input {
		if err := lin[i].SetBig(x); err != nil {
			return nil, nil, fmt.Errorf("%w: input component %d not in field", ErrParams, i)
		}
	}

	maskSpan := obs.Start(obs.PhaseReceiverMask)
	covers := make([]*poly.LimbPoly, n)
	for i := range lin {
		g, err := poly.RandomLimb(rng, params.MaskDegree, &lin[i])
		if err != nil {
			return nil, nil, err
		}
		covers[i] = g
	}
	maskSpan.End()

	decoySpan := obs.Start(obs.PhaseReceiverDecoy)
	total := params.TotalPairs()
	points, err := distinctNonZeroLimb(total, rng)
	if err != nil {
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
		rec := packed[i*stride : (i+1)*stride]
		points[i].PutBytes(rec[:limb.ElementLen])
		if !isGenuine[i] {
			// A decoy's n components are drawn straight into their wire
			// slots in one read: RandBytes consumes the same rng bytes in
			// the same order, and yields the same canonical encodings, as
			// one Rand+PutBytes per component.
			if err := limb.RandBytes(rng, rec[limb.ElementLen:]); err != nil {
				return nil, nil, err
			}
		}
	}
	_ = parallel.For(total, func(i int) error {
		if !isGenuine[i] {
			return nil
		}
		rec := packed[i*stride : (i+1)*stride]
		var y limb.Element
		for j, g := range covers {
			g.EvalInto(&y, &points[i])
			y.PutBytes(rec[(1+j)*limb.ElementLen : (2+j)*limb.ElementLen])
		}
		return nil
	})
	decoySpan.End()

	r := &Receiver{
		params: params,
		state:  receiverAwaitingSetup,
		query:  query{lpoints: points, genuine: genuine},
	}
	return r, &EvalRequest{Packed: packed}, nil
}

// distinctNonZeroLimb samples n distinct non-zero limb elements. n is a
// few dozen at most, so a linear rescan beats allocating and hashing a
// dedup map on every query.
func distinctNonZeroLimb(n int, rng io.Reader) ([]limb.Element, error) {
	out := make([]limb.Element, 0, n)
	var x limb.Element
sample:
	for len(out) < n {
		if err := x.RandNonZero(rng); err != nil {
			return nil, err
		}
		for i := range out {
			if out[i] == x {
				continue sample
			}
		}
		out = append(out, x)
	}
	return out, nil
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
// fully validates a shape-checked request, returning the records as a
// flat slice of (1+numVars)-element groups. The returned slice comes from
// flatPool; callers hand it back via putFlat when done.
func parseRequestLimb(params Params, numVars int, req *EvalRequest) ([]limb.Element, error) {
	total := params.TotalPairs()
	stride := 1 + numVars
	flat := getFlat(total * stride)
	for i := 0; i < total; i++ {
		rec := flat[i*stride : (i+1)*stride]
		raw := req.Packed[i*stride*limb.ElementLen:]
		for j := 0; j < stride; j++ {
			if err := rec[j].SetBytes(raw[j*limb.ElementLen : (j+1)*limb.ElementLen]); err != nil {
				putFlat(flat)
				return nil, recordError(i, j)
			}
		}
		if rec[0].IsZero() {
			putFlat(flat)
			return nil, recordError(i, 0)
		}
		// Totals are a few dozen pairs; a linear rescan of the earlier
		// evaluation points is cheaper than a per-query dedup map.
		for k := 0; k < i; k++ {
			if flat[k*stride] == rec[0] {
				putFlat(flat)
				return nil, fmt.Errorf("%w: pair %d repeats evaluation point", ErrBadRequest, i)
			}
		}
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

	stride := 1 + numVars
	total := params.TotalPairs()
	buf := make([]byte, total*limb.ElementLen)
	msgs := make([][]byte, total)
	le, native := eval.(LimbEvaluator)
	f := params.Field
	perr := parallel.For(total, func(i int) error {
		rec := flat[i*stride : (i+1)*stride]
		var pv, y limb.Element
		if native {
			if err := le.EvalLimb(rec[1:], &pv); err != nil {
				return fmt.Errorf("ompe: evaluate pair %d: %w", i, err)
			}
		} else {
			x := make(field.Vec, numVars)
			for j := range x {
				x[j] = rec[1+j].ToBig()
			}
			v, err := eval.Eval(x)
			if err != nil {
				return fmt.Errorf("ompe: evaluate pair %d: %w", i, err)
			}
			pv.SetBigReduce(f.Reduce(v))
		}
		h.EvalInto(&y, &rec[0])
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
