package ompe

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"

	"repro/internal/field"
	"repro/internal/parallel/paralleltest"
)

// detReader is a deterministic byte stream (SHA-256 in counter mode) so two
// protocol runs can consume identical randomness.
type detReader struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDetReader(seed string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(seed))}
}

func (d *detReader) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		h := sha256.New()
		h.Write(d.seed[:])
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], d.counter)
		d.counter++
		h.Write(c[:])
		d.buf = h.Sum(d.buf)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

func parallelTestParams() Params {
	return Params{
		Field:       bigField,
		PolyDegree:  2,
		MaskDegree:  2,
		CoverFactor: 3,
	}
}

func quadEvaluator(t *testing.T, f *field.Field) Evaluator {
	t.Helper()
	// P(x) = x0² + 3·x0·x1 − 2·x1 + 7
	return EvaluatorFunc(2, func(x field.Vec) (*big.Int, error) {
		v := f.Add(f.Mul(x[0], x[0]), f.Mul(f.FromInt64(3), f.Mul(x[0], x[1])))
		return f.Add(v, f.Add(f.Mul(f.FromInt64(-2), x[1]), f.FromInt64(7))), nil
	})
}

// TestParallelRoundTrip runs the full protocol across worker counts and
// checks the recovered value at each. Under -race this also
// exercises the concurrent masked evaluations, request construction, and
// batch OT for data races.
func TestParallelRoundTrip(t *testing.T) {
	f := bigField
	input := field.Vec{f.FromInt64(4), f.FromInt64(-3)}
	// P(α) = 16 − 36 + 6 + 7 = −7.
	wantPlain := f.FromInt64(-7)
	for _, procs := range []int{1, 2, 4, 8} {
		paralleltest.SetProcs(t, procs)
		res, err := Run(parallelTestParams(), quadEvaluator(t, f), input, rand.Reader)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := f.Mul(res.Amplifier, wantPlain)
		if res.Value.Cmp(want) != 0 {
			t.Fatalf("procs=%d: got %v, want amp·P(α)=%v", procs, res.Value, want)
		}
	}
}

// TestParallelDeterministic locks the rng stream and checks that the
// receiver's request and the final value are bit-identical at every
// GOMAXPROCS: randomness is drawn serially in the serial-code
// order, only pure arithmetic fans out.
func TestParallelDeterministic(t *testing.T) {
	f := bigField
	input := field.Vec{f.FromInt64(9), f.FromInt64(2)}

	type trace struct {
		req   *EvalRequest
		value *big.Int
	}
	runOnce := func(procs int) trace {
		paralleltest.SetProcs(t, procs)
		params := parallelTestParams()
		rng := newDetReader("ompe-determinism")
		sender, err := NewSender(params, quadEvaluator(t, f))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		receiver, req, err := NewReceiver(params, input, rng)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		setup, err := sender.HandleRequest(req, rng)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		choice, err := receiver.HandleSetup(setup, rng)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		tr, err := sender.HandleChoice(choice, rng)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		value, err := receiver.Finish(tr)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return trace{req: req, value: value}
	}

	base := runOnce(1)
	for _, procs := range []int{2, 4} {
		got := runOnce(procs)
		if base.value.Cmp(got.value) != 0 {
			t.Fatalf("procs=%d: value %v differs from serial %v", procs, got.value, base.value)
		}
		if string(base.req.Seed) != string(got.req.Seed) || string(base.req.Packed) != string(got.req.Packed) {
			t.Fatalf("procs=%d: request bytes differ", procs)
		}
	}
}

// TestParallelEvaluatorErrorPropagates checks deadlock-free error
// propagation when one pair's evaluation fails mid-batch: the sender's
// HandleRequest must return the error promptly at any GOMAXPROCS.
func TestParallelEvaluatorErrorPropagates(t *testing.T) {
	f := bigField
	input := field.Vec{f.FromInt64(1), f.FromInt64(2)}
	boom := errors.New("evaluator exploded")

	for _, procs := range []int{1, 4} {
		paralleltest.SetProcs(t, procs)
		params := parallelTestParams()
		var calls atomic.Int64
		eval := EvaluatorFunc(2, func(z field.Vec) (*big.Int, error) {
			if calls.Add(1) == 3 { // fail one evaluation mid-batch
				return nil, boom
			}
			return f.Dot(field.Vec{f.One(), f.One()}, z)
		})
		sender, err := NewSender(params, eval)
		if err != nil {
			t.Fatal(err)
		}
		_, req, err := NewReceiver(params, input, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sender.HandleRequest(req, rand.Reader); !errors.Is(err, boom) {
			t.Fatalf("procs=%d: got %v, want evaluator error", procs, err)
		}
	}
}

// TestParallelSessionRoundTrip covers the extension-based fast path with a
// parallel worker pool (masked evaluations are the parallel region there).
func TestParallelSessionRoundTrip(t *testing.T) {
	f := bigField
	paralleltest.SetProcs(t, 4)
	params := parallelTestParams()
	input := field.Vec{f.FromInt64(4), f.FromInt64(-3)}

	sender, receiver, err := NewSession(params, quadEvaluator(t, f), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
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
		if f.Centered(values[0]).Sign() >= 0 {
			t.Fatalf("query %d: amplified P(α)=−7 must stay negative, got %v", i, values[0])
		}
	}
}

// TestDistinctNonZeroKeyedByCanonicalBytes guards the dedup key: two
// big.Ints with equal canonical encodings must collide even if their
// String forms were produced differently.
func TestDistinctNonZeroKeyedByCanonicalBytes(t *testing.T) {
	f := bigField
	pts, err := distinctNonZero(f, 64, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(pts))
	for _, p := range pts {
		if p.Sign() == 0 {
			t.Fatal("zero evaluation point")
		}
		b, err := f.Bytes(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[string(b)] = true
	}
}
