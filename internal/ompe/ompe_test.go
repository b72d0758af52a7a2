package ompe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/mvpoly"
	"repro/internal/ot"
	"repro/internal/poly"
	"repro/internal/wire"
)

// bigField is 2^521−1. The limb engine serves only 2^255−19, so every
// test on this field exercises the math/big engine; the limb engine's
// tests (limb_test.go) run on field.Default.
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
	p := EvaluatorFunc(2, func(x field.Vec) (*big.Int, error) {
		cube := f.Mul(x[0], f.Mul(x[0], x[0]))
		return f.Add(cube, f.Add(f.Mul(f.FromInt64(2), f.Mul(x[0], x[1])), f.FromInt64(5))), nil
	})
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
		{Field: good.Field, PolyDegree: 0, MaskDegree: 1, CoverFactor: 2},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 0, CoverFactor: 2},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 1, CoverFactor: 1},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 1, CoverFactor: 2, AmplifierBits: -1},
		// D = p·q, m = D+1 or M = m·k overflows int.
		{Field: good.Field, PolyDegree: 1 << 40, MaskDegree: 1 << 40, CoverFactor: 2},
		{Field: good.Field, PolyDegree: 1, MaskDegree: math.MaxInt, CoverFactor: 2},
		{Field: good.Field, PolyDegree: 1, MaskDegree: math.MaxInt / 2, CoverFactor: 2},
		{Field: good.Field, PolyDegree: 1, MaskDegree: 2, CoverFactor: math.MaxInt / 2},
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

// TestRequestSizeBound: a role that knows the arity refuses a shape
// whose request exceeds wire.MaxBytes, before allocating anything sized
// by it.
func TestRequestSizeBound(t *testing.T) {
	good := testParams(t, 1)
	// One 66-byte element per record on 2^521−1: M = 3k records fit
	// wire.MaxBytes up to k = ⌊2^28/66⌋/3.
	f := good.Field
	stride := packedStride(f, 1)
	maxK := wire.MaxBytes / stride / 3
	fits, over := good, good
	fits.CoverFactor, over.CoverFactor = maxK, maxK+1
	if err := fits.validateFor(1); err != nil {
		t.Fatalf("M·stride = %d ≤ %d refused: %v", fits.TotalPairs()*stride, wire.MaxBytes, err)
	}
	if err := over.validateFor(1); !errors.Is(err, ErrParams) {
		t.Fatalf("M·stride = %d > %d: err = %v, want ErrParams", over.TotalPairs()*stride, wire.MaxBytes, err)
	}
	// A shape that does not overflow but whose request is ~2^58 bytes:
	// every role that knows n refuses it.
	huge := good
	huge.MaskDegree = 1 << 50
	eval := buildLinear(t, f, 1)
	if _, _, err := NewReceiver(huge, field.Vec{f.One()}, rand.Reader); !errors.Is(err, ErrParams) {
		t.Fatalf("NewReceiver: err = %v, want ErrParams", err)
	}
	if _, err := NewSender(huge, eval); !errors.Is(err, ErrParams) {
		t.Fatalf("NewSender: err = %v, want ErrParams", err)
	}
	if _, _, err := NewSessionSenderBase(huge, eval, nil, rand.Reader); !errors.Is(err, ErrParams) {
		t.Fatalf("NewSessionSenderBase: err = %v, want ErrParams", err)
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
// the sender's request validation: every hostile request is refused with
// a typed ErrBadRequest, without a panic, on both engines (2^255−19 runs
// limb, 2^521−1 math/big) and through both the one-shot sender and a
// session's HandleBatch. The three evaluation-point rows send a point of
// the client's choosing in front of every record, the layout requests
// had before the sender came to expand every point from the seed: a
// request that names its own points is refused by its length.
func TestSenderRejectsMalformedRequests(t *testing.T) {
	const numVars = 2
	// withPoints prefixes record i of b with the encoding of point(i).
	withPoints := func(f *field.Field, b []byte, point func(i int) *big.Int) []byte {
		var out []byte
		for i, stride := 0, packedStride(f, numVars); len(b) > 0; i, b = i+1, b[stride:] {
			out = append(out, point(i).FillBytes(make([]byte, f.ElementLen()))...)
			out = append(out, b[:stride]...)
		}
		return out
	}
	corruptions := []struct {
		name string
		// corrupt rewrites a well-formed request's records; it returns
		// nil for a nil request.
		corrupt func(f *field.Field, b []byte) []byte
	}{
		{"nil request", func(*field.Field, []byte) []byte { return nil }},
		{"wrong length", func(_ *field.Field, b []byte) []byte { return b[:len(b)-1] }},
		{"wrong pair count", func(f *field.Field, b []byte) []byte {
			return b[:len(b)-packedStride(f, numVars)]
		}},
		{"wrong arity", func(f *field.Field, b []byte) []byte {
			// Every record one component short.
			var out []byte
			for stride := packedStride(f, numVars); len(b) > 0; b = b[stride:] {
				out = append(out, b[:stride-f.ElementLen()]...)
			}
			return out
		}},
		{"zero evaluation point", func(f *field.Field, b []byte) []byte {
			return withPoints(f, b, func(int) *big.Int { return new(big.Int) })
		}},
		{"duplicate evaluation points", func(f *field.Field, b []byte) []byte {
			return withPoints(f, b, func(i int) *big.Int { return big.NewInt(int64(max(i, 1))) })
		}},
		{"out-of-field evaluation point", func(f *field.Field, b []byte) []byte {
			return withPoints(f, b, func(int) *big.Int { return f.Modulus() })
		}},
		{"out-of-field component", func(f *field.Field, b []byte) []byte {
			f.Modulus().FillBytes(b[:f.ElementLen()])
			return b
		}},
	}
	fields := []struct {
		name string
		f    *field.Field
	}{{"p25519", field.Default()}, {"p521", bigField}}
	// One session per field: a refused batch never reaches the extension,
	// so the session survives every case.
	type setup struct {
		params   Params
		eval     Evaluator
		input    field.Vec
		sender   *SessionSender
		receiver *SessionReceiver
	}
	setups := make([]setup, len(fields))
	for i, fc := range fields {
		params := testParams(t, 1)
		params.Field = fc.f
		eval := buildLinear(t, fc.f, numVars)
		sender, receiver, err := NewSession(params, eval, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		setups[i] = setup{params, eval, field.Vec{fc.f.FromInt64(1), fc.f.FromInt64(2)}, sender, receiver}
	}
	refused := func(t *testing.T, call func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		if err := call(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("err = %v, want ErrBadRequest", err)
		}
	}
	hostile := func(f *field.Field, req *EvalRequest, corrupt func(*field.Field, []byte) []byte) *EvalRequest {
		b := corrupt(f, append([]byte(nil), req.Packed...))
		if b == nil {
			return nil
		}
		return &EvalRequest{Seed: req.Seed, Packed: b}
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			for i, fc := range fields {
				su := setups[i]
				t.Run(fc.name+"/HandleRequest", func(t *testing.T) {
					s, err := NewSender(su.params, su.eval)
					if err != nil {
						t.Fatal(err)
					}
					_, req, err := NewReceiver(su.params, su.input, rand.Reader)
					if err != nil {
						t.Fatal(err)
					}
					refused(t, func() error {
						_, err := s.HandleRequest(hostile(fc.f, req, tc.corrupt), rand.Reader)
						return err
					})
				})
				t.Run(fc.name+"/HandleBatch", func(t *testing.T) {
					_, req, err := su.receiver.NewBatch([]field.Vec{su.input}, rand.Reader)
					if err != nil {
						t.Fatal(err)
					}
					req.Evals[0] = hostile(fc.f, req.Evals[0], tc.corrupt)
					refused(t, func() error {
						_, err := su.sender.HandleBatch(req, rand.Reader)
						return err
					})
				})
			}
		})
	}
}

// requestRecords decodes a well-formed request's cover tuples.
func requestRecords(t *testing.T, f *field.Field, numVars int, req *EvalRequest) []field.Vec {
	t.Helper()
	elen := f.ElementLen()
	var zs []field.Vec
	for b := req.Packed; len(b) > 0; b = b[packedStride(f, numVars):] {
		z := make(field.Vec, numVars)
		for j := range z {
			x, err := f.FromBytes(b[j*elen : (j+1)*elen])
			if err != nil {
				t.Fatal(err)
			}
			z[j] = x
		}
		zs = append(zs, z)
	}
	return zs
}

// packRequest encodes a point seed and cover tuples as a request.
func packRequest(f *field.Field, seed []byte, zs []field.Vec) *EvalRequest {
	elen := f.ElementLen()
	var packed []byte
	for _, z := range zs {
		for _, x := range z {
			packed = append(packed, x.FillBytes(make([]byte, elen))...)
		}
	}
	return &EvalRequest{Seed: seed, Packed: packed}
}

// TestSeedExpandsToReceiverPoints: the sender's parse of a request
// expands its seed into the very points the receiver built its records
// on, on the limb engine at 2^255−19 and on math/big at 2^521−1, for a
// one-shot request and every sample of a session batch. CI runs it at
// one and four workers.
func TestSeedExpandsToReceiverPoints(t *testing.T) {
	const numVars = 2
	for _, f := range []*field.Field{field.Default(), bigField} {
		params := testParams(t, 1)
		params.Field = f
		check := func(name string, q query, req *EvalRequest) {
			t.Helper()
			total := params.TotalPairs()
			if params.limbBackend() {
				flat, err := parseRequestLimb(params, numVars, req)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(flat[:total], q.lpoints) {
					t.Errorf("%d bits, %s: the sender's points differ from the receiver's", f.Bits(), name)
				}
				putFlat(flat)
				return
			}
			points, _, err := parseRequest(params, numVars, req)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(points, q.points, func(a, b *big.Int) bool { return a.Cmp(b) == 0 }) {
				t.Errorf("%d bits, %s: the sender's points differ from the receiver's", f.Bits(), name)
			}
		}
		input := field.Vec{f.FromInt64(3), f.FromInt64(-4)}
		r, req, err := NewReceiver(params, input, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		check("one-shot", r.query, req)
		_, sr, err := NewSession(params, buildLinear(t, f, numVars), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		batch, breq, err := sr.NewBatch([]field.Vec{input, input, input}, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range batch.queries {
			check(fmt.Sprintf("batch sample %d", i), q, breq.Evals[i])
		}
	}
}

// refusingReader fails the test that reads it.
type refusingReader struct{ t *testing.T }

func (r refusingReader) Read([]byte) (int, error) {
	r.t.Fatal("the sender drew randomness for a request it must refuse")
	return 0, nil
}

// TestSeedLengthRefused: a point seed of 0, 15 or 17 bytes is refused
// with ErrBadRequest, by the one-shot sender and by a session's
// HandleBatch on both engines, before the sender draws any randomness or
// sizes anything by the request.
func TestSeedLengthRefused(t *testing.T) {
	const numVars = 2
	for _, f := range []*field.Field{field.Default(), bigField} {
		params := testParams(t, 1)
		params.Field = f
		eval := buildLinear(t, f, numVars)
		input := field.Vec{f.FromInt64(1), f.FromInt64(2)}
		ss, sr, err := NewSession(params, eval, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, ot.SeedLen - 1, ot.SeedLen + 1} {
			_, req, err := NewReceiver(params, input, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			req.Seed = make([]byte, size)
			s, err := NewSender(params, eval)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.HandleRequest(req, refusingReader{t}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%d bits, %d-byte seed: HandleRequest err = %v, want ErrBadRequest", f.Bits(), size, err)
			}
			_, breq, err := sr.NewBatch([]field.Vec{input}, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			breq.Evals[0].Seed = make([]byte, size)
			if _, err := ss.HandleBatch(breq, refusingReader{t}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%d bits, %d-byte seed: HandleBatch err = %v, want ErrBadRequest", f.Bits(), size, err)
			}
		}
	}
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
	zs := requestRecords(t, f, len(input), req)
	for i, tuple := range zs {
		for j, z := range tuple {
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
			zs := requestRecords(t, f, len(input), req)
			for _, tuple := range zs {
				for _, z := range tuple {
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
			seed := make([]byte, ot.SeedLen)
			if _, err := rand.Read(seed); err != nil {
				t.Fatal(err)
			}
			points, err := expandPoints(f, 2*m, seed)
			if err != nil {
				t.Fatal(err)
			}
			zs := make([]field.Vec, 2*m)
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
					zs[i] = z
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
				inv, err := f.Inv(y2)
				if err != nil {
					return err.Error()
				}
				ratio := f.Mul(y1, inv)
				if inv16, _ := f.Inv(f.FromInt64(16)); ratio.Cmp(f.Mul(f.FromInt64(-10), inv16)) == 0 {
					return "the client divided the amplifier out: P(α1)/P(α2) = −10/16"
				}
				return fmt.Sprintf("the client interpolated a quotient of %v", ratio)
			}
			return &FastBatchRequest{Evals: []*EvalRequest{packRequest(f, seed, zs)}, OT: otReq}, learn
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
