package ompe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/mvpoly"
	"repro/internal/ot"
	"repro/internal/poly"
)

// bigField is 2^521−1. The limb engine serves only 2^255−19, so every
// test on this field exercises the math/big engine and its pair-form
// requests; the limb engine's tests (limb_test.go) run on field.Default.
var bigField = func() *field.Field {
	f, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		panic(err)
	}
	return f
}()

func testParams(t *testing.T, polyDegree int) Params {
	t.Helper()
	return Params{
		Field:       bigField,
		PolyDegree:  polyDegree,
		MaskDegree:  2,
		CoverFactor: 2,
		Group:       ot.Group512Test(),
	}
}

// TestRunLinear checks end-to-end that the receiver recovers amp·P(α) for
// a linear polynomial, mirroring §IV-A.
func TestRunLinear(t *testing.T) {
	f := bigField
	params := testParams(t, 1)

	w := field.Vec{f.FromInt64(3), f.FromInt64(-5), f.FromInt64(7)}
	b := f.FromInt64(11)
	p, err := mvpoly.NewLinear(f, w, b)
	if err != nil {
		t.Fatal(err)
	}
	input := field.Vec{f.FromInt64(2), f.FromInt64(4), f.FromInt64(-1)}

	res, err := Run(params, p, input, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// P(α) = 3·2 − 5·4 + 7·(−1) + 11 = −10.
	want := f.Mul(res.Amplifier, f.FromInt64(-10))
	if res.Value.Cmp(want) != 0 {
		t.Fatalf("got %v, want amp·P(α)=%v (amp=%v)", res.Value, want, res.Amplifier)
	}
	if f.Centered(res.Value).Sign() >= 0 {
		t.Fatalf("amplified negative value must stay negative in centered form")
	}
}

// TestRunNonlinearWithShift checks a degree-3 polynomial with a pinned
// amplifier and shift, the configuration the similarity protocol uses.
func TestRunNonlinearWithShift(t *testing.T) {
	f := bigField
	params := testParams(t, 3)

	// P(x) = x0^3 + 2·x0·x1 + 5
	p, err := mvpoly.New(f, 2, []mvpoly.Term{
		{Coeff: big.NewInt(1), Exps: []uint{3, 0}},
		{Coeff: big.NewInt(2), Exps: []uint{1, 1}},
		{Coeff: big.NewInt(5), Exps: []uint{0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := field.Vec{f.FromInt64(2), f.FromInt64(3)}
	amp := big.NewInt(17)
	shift := f.FromInt64(-1000)

	res, err := Run(params, p, input, rand.Reader, WithAmplifier(amp), WithShift(shift))
	if err != nil {
		t.Fatal(err)
	}
	// P(α) = 8 + 12 + 5 = 25; amp·P + shift = 17·25 − 1000 = −575.
	want := f.FromInt64(-575)
	if res.Value.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", f.Centered(res.Value), f.Centered(want))
	}
}

// TestMatchesPlaintextProperty: for random linear polynomials and inputs,
// the protocol output equals amp·P(α) computed directly.
func TestMatchesPlaintextProperty(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	for trial := 0; trial < 10; trial++ {
		n := 1 + trial%4
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
		want := f.Mul(res.Amplifier, direct)
		if res.Value.Cmp(want) != 0 {
			t.Fatalf("trial %d: protocol %v != direct %v", trial, res.Value, want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	good := testParams(t, 1)
	bad := []Params{
		{},
		{Field: good.Field, PolyDegree: 0, MaskDegree: 1, CoverFactor: 2, Group: good.Group},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 0, CoverFactor: 2, Group: good.Group},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 1, CoverFactor: 1, Group: good.Group},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 1, CoverFactor: 2, Group: nil},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 1, CoverFactor: 2, AmplifierBits: -1, Group: good.Group},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.GenuineCount() != good.ComposedDegree()+1 {
		t.Fatal("m != D+1")
	}
	if good.TotalPairs() != good.GenuineCount()*good.CoverFactor {
		t.Fatal("M != m·k")
	}
}

func buildLinear(t *testing.T, f *field.Field, n int) Evaluator {
	t.Helper()
	w, err := f.RandVec(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mvpoly.NewLinear(f, w, f.FromInt64(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSenderRejectsMalformedRequests is the failure-injection suite for
// the sender's request validation.
func TestSenderRejectsMalformedRequests(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 2)
	input := field.Vec{f.FromInt64(1), f.FromInt64(2)}

	fresh := func() (*Sender, *EvalRequest) {
		s, err := NewSender(params, eval)
		if err != nil {
			t.Fatal(err)
		}
		_, req, err := NewReceiver(params, input, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return s, req
	}

	t.Run("nil request", func(t *testing.T) {
		s, _ := fresh()
		if _, err := s.HandleRequest(nil, rand.Reader); err == nil {
			t.Fatal("nil request should fail")
		}
	})
	t.Run("wrong pair count", func(t *testing.T) {
		s, req := fresh()
		req.Pairs = req.Pairs[:len(req.Pairs)-1]
		if _, err := s.HandleRequest(req, rand.Reader); err == nil {
			t.Fatal("short request should fail")
		}
	})
	t.Run("zero evaluation point", func(t *testing.T) {
		s, req := fresh()
		req.Pairs[0].V = f.Zero()
		if _, err := s.HandleRequest(req, rand.Reader); err == nil {
			t.Fatal("v=0 should fail (it would expose P(alpha) directly)")
		}
	})
	t.Run("duplicate evaluation points", func(t *testing.T) {
		s, req := fresh()
		req.Pairs[1].V = new(big.Int).Set(req.Pairs[0].V)
		if _, err := s.HandleRequest(req, rand.Reader); err == nil {
			t.Fatal("duplicate v should fail")
		}
	})
	t.Run("wrong arity", func(t *testing.T) {
		s, req := fresh()
		req.Pairs[0].Z = req.Pairs[0].Z[:1]
		if _, err := s.HandleRequest(req, rand.Reader); err == nil {
			t.Fatal("short z should fail")
		}
	})
	t.Run("out-of-field component", func(t *testing.T) {
		s, req := fresh()
		req.Pairs[0].Z[0] = f.Modulus()
		if _, err := s.HandleRequest(req, rand.Reader); err == nil {
			t.Fatal("non-canonical z should fail")
		}
	})
}

func TestStateMachineOrder(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 2)
	input := field.Vec{f.FromInt64(3), f.FromInt64(4)}

	sender, err := NewSender(params, eval)
	if err != nil {
		t.Fatal(err)
	}
	receiver, req, err := NewReceiver(params, input, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Choice before request: state violation.
	if _, err := sender.HandleChoice(nil, rand.Reader); err == nil {
		t.Fatal("HandleChoice before HandleRequest should fail")
	}
	// Finish before setup: state violation.
	if _, err := receiver.Finish(nil); err == nil {
		t.Fatal("Finish before HandleSetup should fail")
	}
	setup, err := sender.HandleRequest(req, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Double request: one-shot.
	if _, err := sender.HandleRequest(req, rand.Reader); err == nil {
		t.Fatal("second HandleRequest should fail")
	}
	choice, err := receiver.HandleSetup(setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sender.HandleChoice(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Finish(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Finish(tr); err == nil {
		t.Fatal("double Finish should fail")
	}
}

func TestReceiverValidatesInput(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	if _, _, err := NewReceiver(params, nil, rand.Reader); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, _, err := NewReceiver(params, field.Vec{f.Modulus()}, rand.Reader); err == nil {
		t.Fatal("non-canonical input should fail")
	}
}

// TestRequestHidesInput checks the cover structure: the request must not
// contain the raw input components in genuine positions at any fixed
// index pattern (statistically — we check the input value appears nowhere
// verbatim, which holds with overwhelming probability for random covers).
func TestRequestHidesInput(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	secret := f.FromInt64(123456789)
	input := field.Vec{secret, f.FromInt64(42)}
	_, req, err := NewReceiver(params, input, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range req.Pairs {
		for j, z := range pair.Z {
			if z.Cmp(secret) == 0 {
				t.Fatalf("raw secret appears verbatim at pair %d component %d", i, j)
			}
		}
	}
}

// TestFreshAmplifierPerExecution: two executions against the same sender
// configuration must use different amplifiers (Level-2 privacy).
func TestFreshAmplifierPerExecution(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 2)
	input := field.Vec{f.FromInt64(1), f.FromInt64(1)}
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		res, err := Run(params, eval, input, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		key := res.Amplifier.String()
		if seen[key] {
			t.Fatal("amplifier repeated across executions")
		}
		seen[key] = true
	}
}

// TestMaskedEvaluationsMatchesProtocol: the exported arithmetic core must
// produce values consistent with a full protocol run's genuine points.
func TestMaskedEvaluationsMatchesProtocol(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 3)
	input := field.Vec{f.FromInt64(1), f.FromInt64(2), f.FromInt64(3)}
	_, req, err := NewReceiver(params, input, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := MaskedEvaluations(params, eval, req, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != params.TotalPairs() {
		t.Fatalf("%d masked evaluations, want %d", len(msgs), params.TotalPairs())
	}
	for i, m := range msgs {
		if _, err := f.FromBytes(m); err != nil {
			t.Fatalf("masked evaluation %d not a field element: %v", i, err)
		}
	}
}

func TestEvaluatorFunc(t *testing.T) {
	f := bigField
	ev := EvaluatorFunc(2, func(z field.Vec) (*big.Int, error) {
		return f.Add(z[0], z[1]), nil
	})
	if ev.NumVars() != 2 {
		t.Fatal("arity")
	}
	v, err := ev.Eval(field.Vec{f.FromInt64(3), f.FromInt64(4)})
	if err != nil || v.Int64() != 7 {
		t.Fatalf("eval = %v, %v", v, err)
	}
}

// TestRequestStatisticallyHidesInput: the trainer's complete view (the M
// pairs) should look the same regardless of the receiver's input. As a
// cheap distinguisher, compare the fraction of Z-component top bits set
// for a fixed extreme input versus a random input — both must sit near
// 1/2 (covers are uniform except at v=0, which never appears).
func TestRequestStatisticallyHidesInput(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	topBitFraction := func(input field.Vec) float64 {
		ones, total := 0, 0
		for trial := 0; trial < 40; trial++ {
			_, req, err := NewReceiver(params, input, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range req.Pairs {
				for _, z := range pair.Z {
					total++
					if z.BitLen() >= f.Bits()-1 {
						ones++
					}
				}
			}
		}
		return float64(ones) / float64(total)
	}
	fixed := topBitFraction(field.Vec{f.FromInt64(0), f.FromInt64(0)})
	random := topBitFraction(field.Vec{f.FromInt64(1 << 40), f.FromInt64(-(1 << 40))})
	// A uniform element of [0, 2^255-19) has BitLen >= 254 with
	// probability 1 - 2^253/2^255 = 3/4.
	for name, frac := range map[string]float64{"zero-input": fixed, "large-input": random} {
		if frac < 0.65 || frac > 0.85 {
			t.Errorf("%s: top-bit fraction %.3f far from the uniform 0.75", name, frac)
		}
	}
	if fixed-random > 0.1 || random-fixed > 0.1 {
		t.Errorf("views distinguishable by top-bit fraction: %.3f vs %.3f", fixed, random)
	}
}

// TestSessionMatchesPlaintext: the fast-session path must compute exactly
// what the one-shot path computes, across several sequential batches of
// one.
func TestSessionMatchesPlaintext(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 3)

	sender, receiver, err := NewSession(params, eval, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		input, err := f.RandVec(rand.Reader, 3)
		if err != nil {
			t.Fatal(err)
		}
		q, req, err := receiver.NewBatch([]field.Vec{input}, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sender.HandleBatch(req, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		values, err := q.Finish(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := values[0]
		direct, err := eval.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		// got = amp·P(α) for an unknown fresh amplifier; verify the ratio
		// is a plausible positive bounded integer.
		if direct.Sign() == 0 {
			continue
		}
		inv, err := f.Inv(direct)
		if err != nil {
			t.Fatal(err)
		}
		amp := f.Mul(got, inv)
		bound := new(big.Int).Lsh(big.NewInt(1), uint(DefaultAmplifierBits)+1)
		if amp.Sign() <= 0 || amp.Cmp(bound) > 0 {
			t.Fatalf("round %d: implied amplifier %v out of range", round, amp)
		}
	}
}

// TestSessionInFlightQueries: two batches of one opened before either
// response must both complete, provided responses come back in FIFO order (the
// transport's single-worker sessions guarantee exactly that).
func TestSessionInFlightQueries(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 2)
	sender, receiver, err := NewSession(params, eval, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []field.Vec{
		{f.FromInt64(1), f.FromInt64(2)},
		{f.FromInt64(3), f.FromInt64(4)},
	}
	q1, req1, err := receiver.NewBatch(inputs[:1], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	q2, req2, err := receiver.NewBatch(inputs[1:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := sender.HandleBatch(req1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := sender.HandleBatch(req2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range []struct {
		q    *SessionBatch
		resp *FastBatchResponse
	}{{q1, resp1}, {q2, resp2}} {
		got, err := pair.q.Finish(pair.resp)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got[0].Sign() == 0 {
			t.Fatalf("query %d: zero recovery", i)
		}
	}
}

// TestSessionBatch: a batched query recovers every sample's amp·P(α),
// matching what direct evaluation says up to the per-sample amplifier.
func TestSessionBatch(t *testing.T) {
	f := bigField
	params := testParams(t, 1)
	eval := buildLinear(t, f, 2)
	sender, receiver, err := NewSession(params, eval, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]field.Vec, 5)
	for i := range inputs {
		inputs[i] = field.Vec{f.FromInt64(int64(i + 1)), f.FromInt64(int64(2*i + 1))}
	}
	batch, req, err := receiver.NewBatch(inputs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() != len(inputs) {
		t.Fatalf("batch length %d, want %d", batch.Len(), len(inputs))
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
		direct, err := eval.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Sign() == 0 {
			continue
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

// TestSessionBatchValidation: malformed batches must be refused with
// ErrBadRequest before the sender draws any mask. Each row runs on a fresh
// session, so a sender that wrongly answers one row answers it with its
// batch counter in step and the row can report what the client learnt.
func TestSessionBatchValidation(t *testing.T) {
	f := bigField
	params := testParams(t, 1) // m = 3 genuine of M = 6 pairs
	// P(x) = 2·x0 + 3·x1 + 1, so P(−1, −3) = −10 and P(3, 3) = 16.
	eval, err := mvpoly.NewLinear(f, field.Vec{f.FromInt64(2), f.FromInt64(3)}, f.One())
	if err != nil {
		t.Fatal(err)
	}
	input := field.Vec{f.FromInt64(1), f.FromInt64(2)}
	honest := func(t *testing.T, sr *SessionReceiver, samples int) *FastBatchRequest {
		t.Helper()
		inputs := make([]field.Vec, samples)
		for i := range inputs {
			inputs[i] = input
		}
		_, req, err := sr.NewBatch(inputs, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	for _, tc := range []struct {
		name string
		// build returns the hostile request and, should the sender answer
		// it, what the client learns from the answer.
		build func(t *testing.T, sr *SessionReceiver) (*FastBatchRequest, func(*FastBatchResponse) string)
	}{
		{"nil request", func(*testing.T, *SessionReceiver) (*FastBatchRequest, func(*FastBatchResponse) string) {
			return nil, nil
		}},
		{"eval/OT count mismatch", func(t *testing.T, sr *SessionReceiver) (*FastBatchRequest, func(*FastBatchResponse) string) {
			req := honest(t, sr, 2)
			req.Evals = req.Evals[:1]
			return req, nil
		}},
		{"OT over n != M", func(t *testing.T, sr *SessionReceiver) (*FastBatchRequest, func(*FastBatchResponse) string) {
			req := honest(t, sr, 1)
			_, otReq, err := ot.NewExtKofNBatchQuery(sr.iknp, params.TotalPairs()+2, [][]int{{0, 1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			req.OT = otReq
			return req, nil
		}},
		{"two cover tuples under one amplifier", func(t *testing.T, sr *SessionReceiver) (*FastBatchRequest, func(*FastBatchResponse) string) {
			// α1 rides pairs 0..m−1 and α2 pairs m..2m−1, and the OT asks
			// for all 2m = M of them: two interpolations under one
			// amplifier, whose quotient is P(α1)/P(α2).
			m := params.GenuineCount()
			alphas := []field.Vec{
				{f.FromInt64(-1), f.FromInt64(-3)},
				{f.FromInt64(3), f.FromInt64(3)},
			}
			points, err := distinctNonZero(f, 2*m, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]Pair, 2*m)
			for tuple, alpha := range alphas {
				covers := make([]*poly.Poly, len(alpha))
				for j, a := range alpha {
					if covers[j], err = poly.Random(f, rand.Reader, params.MaskDegree, a); err != nil {
						t.Fatal(err)
					}
				}
				for i := tuple * m; i < (tuple+1)*m; i++ {
					z := make(field.Vec, len(covers))
					for j, g := range covers {
						z[j] = g.Eval(points[i])
					}
					pairs[i] = Pair{V: points[i], Z: z}
				}
			}
			all := make([]int, 2*m)
			for i := range all {
				all[i] = i
			}
			q, otReq, err := ot.NewExtKofNBatchQuery(sr.iknp, 2*m, [][]int{all})
			if err != nil {
				t.Fatal(err)
			}
			learn := func(resp *FastBatchResponse) string {
				got, err := q.Recover(resp.OT)
				if err != nil {
					return err.Error()
				}
				y1, err1 := interpolateTransferred(f, got[0][:m], points, all[:m])
				y2, err2 := interpolateTransferred(f, got[0][m:], points, all[m:])
				if err := errors.Join(err1, err2); err != nil {
					return err.Error()
				}
				ratio, err := f.Div(y1, y2)
				if err != nil {
					return err.Error()
				}
				if want, _ := f.Div(f.FromInt64(-10), f.FromInt64(16)); ratio.Cmp(want) == 0 {
					return "the client divided the amplifier out: P(α1)/P(α2) = −10/16"
				}
				return fmt.Sprintf("the client interpolated a quotient of %v", ratio)
			}
			return &FastBatchRequest{Evals: []*EvalRequest{{Pairs: pairs}}, OT: otReq}, learn
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender, receiver, err := NewSession(params, eval, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			req, learn := tc.build(t, receiver)
			resp, err := sender.HandleBatch(req, rand.Reader)
			switch {
			case errors.Is(err, ErrBadRequest):
			case err == nil && learn != nil:
				t.Fatalf("sender answered; %s", learn(resp))
			default:
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
		})
	}
	_, receiver, err := NewSession(params, eval, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := receiver.NewBatch(nil, rand.Reader); err == nil {
		t.Fatal("empty batch should fail")
	}
}
