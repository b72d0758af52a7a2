package ompe

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/mvpoly"
	"repro/internal/ot"
	"repro/internal/parallel/paralleltest"
	"repro/internal/poly"
)

func limbParams(t *testing.T, polyDegree int) Params {
	t.Helper()
	return Params{
		Field:       field.Default(),
		PolyDegree:  polyDegree,
		MaskDegree:  2,
		CoverFactor: 2,
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
		if want := params.TotalPairs() * 2 * limb.ElementLen; len(ev.Packed) != want || len(ev.Seed) != ot.SeedLen {
			t.Fatalf("sample %d: request is a %d-byte seed and %d bytes of records, want %d and %d", i, len(ev.Seed), len(ev.Packed), ot.SeedLen, want)
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
		if string(base.Seed) != string(got.Seed) || string(base.Packed) != string(got.Packed) {
			t.Fatalf("procs=%d: packed request bytes differ", procs)
		}
	}
}

// TestLimbSenderRejectsMalformed exercises the packed-request validation:
// wrong sizes, a seed of the wrong length and non-canonical encodings
// must all be rejected.
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
			return &EvalRequest{Seed: goodReq.Seed, Packed: b[:len(b)-1]}
		},
		"nil": func(b []byte) *EvalRequest { return nil },
		"no seed": func(b []byte) *EvalRequest {
			return &EvalRequest{Packed: b}
		},
		"seed one byte short": func(b []byte) *EvalRequest {
			return &EvalRequest{Seed: goodReq.Seed[1:], Packed: b}
		},
		"non-canonical component": func(b []byte) *EvalRequest {
			for i := 0; i < limb.ElementLen; i++ {
				b[limb.ElementLen+i] = 0xff
			}
			return &EvalRequest{Seed: goodReq.Seed, Packed: b}
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

// TestLimbReceiverMatchesPerCoordinateCovers rebuilds a limb request from
// the same rng stream the reference way — one RandomLimb cover per
// coordinate evaluated by Horner — and wants NewReceiver's bytes, for
// several mask degrees and a madelon-width input.
func TestLimbReceiverMatchesPerCoordinateCovers(t *testing.T) {
	f := field.Default()
	for _, q := range []int{1, 2, 3} {
		for _, n := range []int{1, 8, 500} {
			params := limbParams(t, 1)
			params.MaskDegree = q
			input := make(field.Vec, n)
			for i := range input {
				input[i] = f.FromInt64(int64(7*i - 900))
			}
			seed := fmt.Sprintf("ompe-limb-covers-%d-%d", q, n)
			_, req, err := NewReceiver(params, input, newDetReader(seed))
			if err != nil {
				t.Fatal(err)
			}

			rng := newDetReader(seed)
			pointSeed := make([]byte, ot.SeedLen)
			if _, err := io.ReadFull(rng, pointSeed); err != nil {
				t.Fatal(err)
			}
			covers := make([]*poly.LimbPoly, n)
			for i, x := range input {
				var t0 limb.Element
				if err := t0.SetBig(x); err != nil {
					t.Fatal(err)
				}
				if covers[i], err = poly.RandomLimb(rng, q, &t0); err != nil {
					t.Fatal(err)
				}
			}
			total := params.TotalPairs()
			points := make([]limb.Element, total)
			if err := distinctNonZeroLimb(points, ot.NewKeystream(pointSeed)); err != nil {
				t.Fatal(err)
			}
			genuine, err := randomSubset(total, params.GenuineCount(), rng)
			if err != nil {
				t.Fatal(err)
			}
			stride := n * limb.ElementLen
			want := make([]byte, total*stride)
			for i := 0; i < total; i++ {
				if !slices.Contains(genuine, i) {
					if err := limb.RandBytes(rng, want[i*stride:(i+1)*stride]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, i := range genuine {
				for j, g := range covers {
					var y limb.Element
					g.EvalInto(&y, &points[i])
					y.PutBytes(want[i*stride+j*limb.ElementLen:])
				}
			}
			if !bytes.Equal(req.Seed, pointSeed) || !bytes.Equal(req.Packed, want) {
				t.Errorf("q=%d n=%d: request differs from per-coordinate covers", q, n)
			}
		}
	}
}

// TestNewReceiverAllocs pins the limb receiver's allocations: the covers
// are drawn into one buffer and evaluated without a per-coordinate
// polynomial, so the count does not grow with n.
func TestNewReceiverAllocs(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	rng := mrand.NewChaCha8([32]byte{1})
	counts := map[int]float64{}
	for _, n := range []int{8, 500} {
		input := make(field.Vec, n)
		for i := range input {
			input[i] = f.FromInt64(int64(i))
		}
		counts[n] = testing.AllocsPerRun(20, func() {
			if _, _, err := NewReceiver(params, input, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("NewReceiver allocates %.0f at n = 8 and n = 500", counts[500])
	if counts[8] != counts[500] {
		t.Errorf("NewReceiver allocates %.0f at n = 8 and %.0f at n = 500, want the same", counts[8], counts[500])
	}
}

// TestCoverCoefficientsFresh draws B covers of one sample in a batch, on
// three consecutive batches in flight on one session, at one and four
// workers, under the coverTrace tap: every sample's coefficient vector
// must be new.
func TestCoverCoefficientsFresh(t *testing.T) {
	f := field.Default()
	params := limbParams(t, 1)
	w := field.Vec{f.FromInt64(2), f.FromInt64(-3), f.FromInt64(5)}
	p, err := mvpoly.NewLinear(f, w, f.FromInt64(1))
	if err != nil {
		t.Fatal(err)
	}
	const B, batches = 8, 3
	sample := field.Vec{f.FromInt64(4), f.FromInt64(4), f.FromInt64(-1)}
	inputs := make([]field.Vec, B)
	for i := range inputs {
		inputs[i] = sample
	}
	for _, procs := range []int{1, 4} {
		paralleltest.SetProcs(t, procs)
		_, receiver, err := NewSession(params, p, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		calls := 0
		coverTrace = func(coeffs []limb.Element) {
			calls++
			var key []byte
			for i := range coeffs {
				key = append(key, coeffs[i].Bytes()...)
			}
			seen[string(key)] = true
		}
		for b := 0; b < batches; b++ {
			if _, _, err := receiver.NewBatch(inputs, rand.Reader); err != nil {
				coverTrace = nil
				t.Fatal(err)
			}
		}
		coverTrace = nil
		if calls != B*batches || len(seen) != calls {
			t.Errorf("procs=%d: %d distinct cover vectors in %d samples, want %d of each", procs, len(seen), calls, B*batches)
		}
	}
}

// TestDistinctNonZeroLimbRejects feeds distinctNonZeroLimb a stream with a
// zero (p, which reduces to 0) and a repeat among its first n slots: it
// must skip both and take the next draws, as one RandNonZero per element
// with a rescan would.
func TestDistinctNonZeroLimbRejects(t *testing.T) {
	const n = 5
	seed := make([]byte, (n+2)*limb.ElementLen)
	if _, err := rand.Read(seed); err != nil {
		t.Fatal(err)
	}
	limb.Modulus().FillBytes(seed[limb.ElementLen : 2*limb.ElementLen])
	copy(seed[3*limb.ElementLen:4*limb.ElementLen], seed[2*limb.ElementLen:3*limb.ElementLen])
	rng := bytes.NewReader(seed)
	got := make([]limb.Element, n)
	if err := distinctNonZeroLimb(got, rng); err != nil {
		t.Fatal(err)
	}
	if rng.Len() != 0 {
		t.Fatalf("%d rng bytes left unread, want 0", rng.Len())
	}
	var want []limb.Element
	ref := bytes.NewReader(seed)
	for len(want) < n {
		var x limb.Element
		if err := x.RandNonZero(ref); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(want, x) {
			want = append(want, x)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatal("distinctNonZeroLimb differs from one RandNonZero per element")
	}
}
