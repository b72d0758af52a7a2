package ompe

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/mvpoly"
	"repro/internal/ot"
	"repro/internal/parallel/paralleltest"
)

func limbParams(t *testing.T, polyDegree int) Params {
	t.Helper()
	return Params{
		Field:       field.Default(),
		PolyDegree:  polyDegree,
		MaskDegree:  2,
		CoverFactor: 2,
		Group:       ot.Group512Test(),
	}
}

// TestLimbRunMatchesPlaintext runs the one-shot protocol end to end on the
// limb engine with a pinned amplifier and shift: the recovered value must
// equal amp·P(α) + shift exactly, matching the math/big semantics.
func TestLimbRunMatchesPlaintext(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	w := field.Vec{f.FromInt64(3), f.FromInt64(-5), f.FromInt64(7)}
	b := f.FromInt64(11)
	p, err := mvpoly.NewLinear(f, w, b)
	if err != nil {
		t.Fatal(err)
	}
	input := field.Vec{f.FromInt64(2), f.FromInt64(4), f.FromInt64(-1)}
	amp := big.NewInt(23)
	shift := f.FromInt64(-900)
	res, err := Run(params, p, input, rand.Reader, WithAmplifier(amp), WithShift(shift))
	if err != nil {
		t.Fatal(err)
	}
	// P(α) = 6 − 20 − 7 + 11 = −10; 23·(−10) − 900 = −1130.
	want := f.FromInt64(-1130)
	if res.Value.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", f.Centered(res.Value), f.Centered(want))
	}
}

// TestLimbRunProperty: random linear polynomials and inputs through the
// limb engine agree with direct evaluation up to the returned amplifier.
func TestLimbRunProperty(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	for trial := 0; trial < 6; trial++ {
		n := 1 + trial%3
		w, err := f.RandVec(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.Rand(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mvpoly.NewLinear(f, w, b)
		if err != nil {
			t.Fatal(err)
		}
		input, err := f.RandVec(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(params, p, input, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := p.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value.Cmp(f.Mul(res.Amplifier, direct)) != 0 {
			t.Fatalf("trial %d: protocol value != amp·P(α)", trial)
		}
	}
}

// TestLimbSessionBatch runs the batched session path on the limb engine
// and checks every sample's implied amplifier is in range.
func TestLimbSessionBatch(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	w := field.Vec{f.FromInt64(2), f.FromInt64(-3)}
	p, err := mvpoly.NewLinear(f, w, f.FromInt64(1))
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver, err := NewSession(params, p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]field.Vec, 5)
	for i := range inputs {
		inputs[i] = field.Vec{f.FromInt64(int64(i + 2)), f.FromInt64(int64(i))}
	}
	batch, req, err := receiver.NewBatch(inputs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range req.Evals {
		if want := params.TotalPairs() * 3 * limb.ElementLen; len(ev.Packed) != want {
			t.Fatalf("sample %d: request is %d bytes, want %d", i, len(ev.Packed), want)
		}
	}
	resp, err := sender.HandleBatch(req, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batch.Finish(resp)
	if err != nil {
		t.Fatal(err)
	}
	bound := new(big.Int).Lsh(big.NewInt(1), uint(DefaultAmplifierBits)+1)
	for i, input := range inputs {
		direct, err := p.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := f.Inv(direct)
		if err != nil {
			t.Fatal(err)
		}
		amp := f.Mul(got[i], inv)
		if amp.Sign() <= 0 || amp.Cmp(bound) > 0 {
			t.Fatalf("sample %d: implied amplifier %v out of range", i, amp)
		}
	}
}

// TestLimbParallelDeterministic: the packed request bytes must be
// bit-identical at every GOMAXPROCS given the same rng stream — the limb
// engine's wire-determinism contract.
func TestLimbParallelDeterministic(t *testing.T) {
	f := field.Default()
	input := field.Vec{f.FromInt64(9), f.FromInt64(2), f.FromInt64(-4)}
	runOnce := func(procs int) *EvalRequest {
		paralleltest.SetProcs(t, procs)
		rng := newDetReader("ompe-limb-determinism")
		_, req, err := NewReceiver(limbParams(t, 1), input, rng)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return req
	}
	base := runOnce(1)
	for _, procs := range []int{2, 4, 8} {
		got := runOnce(procs)
		if string(base.Packed) != string(got.Packed) {
			t.Fatalf("procs=%d: packed request bytes differ", procs)
		}
	}
}

// TestLimbSenderRejectsMalformed exercises the packed-request validation:
// wrong sizes, non-canonical encodings, and zero and duplicate evaluation
// points must all be rejected.
func TestLimbSenderRejectsMalformed(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	w := field.Vec{f.FromInt64(1), f.FromInt64(2)}
	p, err := mvpoly.NewLinear(f, w, f.FromInt64(3))
	if err != nil {
		t.Fatal(err)
	}
	input := field.Vec{f.FromInt64(5), f.FromInt64(6)}
	_, goodReq, err := NewReceiver(params, input, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	stride := packedStride(f, len(input))
	corrupt := func(mutate func(b []byte) *EvalRequest) error {
		cp := make([]byte, len(goodReq.Packed))
		copy(cp, goodReq.Packed)
		req := mutate(cp)
		sender, err := NewSender(params, p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sender.HandleRequest(req, rand.Reader)
		return err
	}
	cases := map[string]func(b []byte) *EvalRequest{
		"truncated": func(b []byte) *EvalRequest {
			return &EvalRequest{Packed: b[:len(b)-1]}
		},
		"nil": func(b []byte) *EvalRequest { return nil },
		"non-canonical point": func(b []byte) *EvalRequest {
			for i := 0; i < limb.ElementLen; i++ {
				b[i] = 0xff
			}
			return &EvalRequest{Packed: b}
		},
		"non-canonical component": func(b []byte) *EvalRequest {
			for i := 0; i < limb.ElementLen; i++ {
				b[limb.ElementLen+i] = 0xff
			}
			return &EvalRequest{Packed: b}
		},
		"zero point": func(b []byte) *EvalRequest {
			for i := 0; i < limb.ElementLen; i++ {
				b[i] = 0
			}
			return &EvalRequest{Packed: b}
		},
		"duplicate point": func(b []byte) *EvalRequest {
			copy(b[stride:stride+limb.ElementLen], b[:limb.ElementLen])
			return &EvalRequest{Packed: b}
		},
	}
	for name, mutate := range cases {
		if err := corrupt(mutate); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	// The unmodified request must pass.
	sender, err := NewSender(params, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.HandleRequest(goodReq, rand.Reader); err != nil {
		t.Fatalf("well-formed packed request rejected: %v", err)
	}
}

// TestSenderRefusesOtherFieldsRequestForm: a request's records are as
// wide as its field's elements, so a request a receiver on the other
// field builds is malformed for the sender and never reaches its engine.
func TestSenderRefusesOtherFieldsRequestForm(t *testing.T) {
	p521, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		t.Fatal(err)
	}
	onField := func(f *field.Field) Params {
		params := limbParams(t, 1)
		params.Field = f
		return params
	}
	for _, tc := range []struct {
		name             string
		receiver, sender *field.Field
	}{
		{"packed-to-p521", field.Default(), p521},
		{"p521-to-p25519", p521, field.Default()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rf, sf := tc.receiver, tc.sender
			_, req, err := NewReceiver(onField(rf), field.Vec{rf.FromInt64(5), rf.FromInt64(6)}, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			p, err := mvpoly.NewLinear(sf, field.Vec{sf.FromInt64(1), sf.FromInt64(2)}, sf.FromInt64(3))
			if err != nil {
				t.Fatal(err)
			}
			sender, err := NewSender(onField(sf), p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sender.HandleRequest(req, rand.Reader); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}
