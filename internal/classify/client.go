package classify

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/mvpoly"
	"repro/internal/ompe"
)

// fieldType aliases the protocol field for internal naming hygiene.
type fieldType = field.Field

func byBits(bits int) (*fieldType, error) { return field.ByBits(bits) }

// Client is the sample owner's protocol endpoint, built from a trainer's
// published Spec.
type Client struct {
	spec     Spec
	codec    *fixedpoint.Codec
	numVars  int
	scaleExp uint
	// tauExps enumerates the monomial variates for ModeExpanded; it is
	// public structure (it depends only on n and p), not model data.
	tauExps [][]uint
}

// NewClient derives the client side of the protocol from a public spec.
func NewClient(spec Spec) (*Client, error) {
	if err := spec.Kernel.Validate(); err != nil {
		return nil, err
	}
	codec, err := spec.Codec()
	if err != nil {
		return nil, err
	}
	params := Params{Mode: spec.Mode, TaylorTerms: spec.TaylorTerms}
	_, scaleExp, numVars, err := protocolShape(spec.Kernel, spec.Dim, params)
	if err != nil {
		return nil, err
	}
	c := &Client{spec: spec, codec: codec, numVars: numVars, scaleExp: scaleExp}
	if spec.Mode == ModeExpanded && spec.Kernel.Kind == kernelPolynomial {
		if spec.Kernel.B0 == 0 {
			c.tauExps = mvpoly.Compositions(spec.Dim, spec.Kernel.Degree)
		} else {
			c.tauExps = mvpoly.CompositionsUpTo(spec.Dim, spec.Kernel.Degree)
		}
		if len(c.tauExps) != numVars {
			return nil, fmt.Errorf("classify: internal: %d variates enumerated, want %d", len(c.tauExps), numVars)
		}
	}
	return c, nil
}

// EncodeSample maps a raw sample into the protocol input vector: the
// fixed-point encodings of its features (direct modes) or of its monomial
// values τ̃ (expanded mode).
func (c *Client) EncodeSample(sample []float64) (field.Vec, error) {
	if len(sample) != c.spec.Dim {
		return nil, fmt.Errorf("classify: sample dim %d, want %d", len(sample), c.spec.Dim)
	}
	if c.tauExps == nil {
		return c.codec.EncodeVec(sample)
	}
	tau := make([]float64, len(c.tauExps))
	for j, exps := range c.tauExps {
		v := 1.0
		for i, e := range exps {
			for k := uint(0); k < e; k++ {
				v *= sample[i]
			}
		}
		tau[j] = v
	}
	return c.codec.EncodeVec(tau)
}

// NewSession opens a one-shot OMPE receiver for one sample, returning the
// evaluation request to send to the trainer.
func (c *Client) NewSession(sample []float64, rng io.Reader) (*ompe.Receiver, *ompe.EvalRequest, error) {
	input, err := c.EncodeSample(sample)
	if err != nil {
		return nil, nil, err
	}
	params, err := c.spec.OMPEParams()
	if err != nil {
		return nil, nil, err
	}
	return ompe.NewReceiver(params, input, rng)
}

// Interpret maps the OMPE result r_a·d(t̃)·scale to the predicted class
// label in {+1, −1} (the boundary maps to +1, matching svm.Model.Classify).
func (c *Client) Interpret(result *big.Int) (int, error) {
	sign, err := c.codec.Sign(result)
	if err != nil {
		return 0, err
	}
	if sign < 0 {
		return -1, nil
	}
	return 1, nil
}

// NumVars returns the protocol input arity (n, or n' in expanded mode).
func (c *Client) NumVars() int { return c.numVars }

// Spec returns the protocol contract the client was built from.
func (c *Client) Spec() Spec { return c.spec }

// Value decodes the OMPE result to the amplified decision value r_a·d(t̃)
// — the client's complete view of the model's answer. The privacy
// analysis (internal/attack, Fig. 5/6) works with these values.
func (c *Client) Value(result *big.Int) (float64, error) {
	return c.codec.DecodeAtScale(result, c.codec.ScalePow(c.scaleExp))
}
