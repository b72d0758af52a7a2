package similarity_test

import (
	"crypto/rand"
	"errors"
	"math"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
)

func newPair(t *testing.T) (*similarity.Alice, *similarity.Bob) {
	t.Helper()
	wA := []float64{0.8, -0.5}
	wB := []float64{0.2, 0.9}
	alice, err := similarity.NewAlice(wA, 0.1, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := similarity.NewBob(alice.Spec(), wB, -0.2)
	if err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

func TestRoundOrderEnforced(t *testing.T) {
	alice, bob := newPair(t)
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		t.Fatal(err)
	}
	// Bob cannot start the area round first.
	if _, err := bob.StartRound(similarity.RoundArea, rand.Reader); err == nil {
		t.Fatal("area round before dot rounds should fail")
	}
	req, err := bob.StartRound(similarity.RoundCentroid, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Alice rejects a round-2 message while in round 1.
	if _, err := alice.HandleRequest(similarity.RoundNormal, req, rand.Reader); err == nil {
		t.Fatal("round mismatch should fail on Alice's side")
	}
	// Bob cannot start a second round with one in flight.
	if _, err := bob.StartRound(similarity.RoundCentroid, rand.Reader); err == nil {
		t.Fatal("double StartRound should fail")
	}
}

func TestAreaRoundRequiresClearShare(t *testing.T) {
	alice, bob := newPair(t)
	// Skip the clear share entirely and run rounds 1-2.
	runRounds(t, alice, bob, similarity.RoundCentroid, similarity.RoundNormal)
	req, err := bob.StartRound(similarity.RoundArea, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.HandleRequest(similarity.RoundArea, req, rand.Reader); err == nil {
		t.Fatal("area round without a clear share should fail")
	}
}

// runRounds drives the given rounds in memory and returns the last result.
func runRounds(t *testing.T, alice responder, bob requester, rounds ...similarity.Round) *similarity.Result {
	t.Helper()
	var res *similarity.Result
	for _, round := range rounds {
		req, err := bob.StartRound(round, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		setup, err := alice.HandleRequest(round, req, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		choice, err := bob.HandleSetup(round, setup, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := alice.HandleChoice(round, choice, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = bob.FinishRound(round, tr); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestNoRoundPastArea: once the area round has finished, both sides of
// both variants refuse every further round.
func TestNoRoundPastArea(t *testing.T) {
	alice, bob := newPair(t)
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		t.Fatal(err)
	}
	if res := runRounds(t, alice, bob, similarity.RoundCentroid, similarity.RoundNormal, similarity.RoundArea); res == nil {
		t.Fatal("area round returned no result")
	}
	refusePastArea(t, alice, bob)

	kalice, kbob := kernelPair(t)
	scale, err := kalice.AnnounceAreaScale()
	if err != nil {
		t.Fatal(err)
	}
	if err := kbob.SetAreaScale(scale); err != nil {
		t.Fatal(err)
	}
	runRounds(t, kalice, kbob, kernelRounds(kbob.ClearShare().NumSupport, true)...)
	refusePastArea(t, kalice, kbob)
}

func refusePastArea(t *testing.T, alice responder, bob requester) {
	t.Helper()
	for _, round := range []similarity.Round{similarity.RoundArea, similarity.RoundArea + 1} {
		if _, err := bob.StartRound(round, rand.Reader); !errors.Is(err, similarity.ErrRound) {
			t.Fatalf("Bob StartRound(%d) after the area round: %v, want ErrRound", round, err)
		}
		if _, err := alice.HandleRequest(round, nil, rand.Reader); !errors.Is(err, similarity.ErrRound) {
			t.Fatalf("Alice HandleRequest(%d) after the area round: %v, want ErrRound", round, err)
		}
	}
}

// kernelRounds lists the kernel variant's rounds: the centroid round, n
// normal instances and, if area, the area round.
func kernelRounds(n int, area bool) []similarity.Round {
	rounds := []similarity.Round{similarity.RoundCentroid}
	for range n {
		rounds = append(rounds, similarity.RoundNormal)
	}
	if area {
		rounds = append(rounds, similarity.RoundArea)
	}
	return rounds
}

func TestClearShareValidation(t *testing.T) {
	alice, _ := newPair(t)
	bad := []*similarity.ClearShare{
		nil,
		{NormM2: -1, NormW2: 1},
		{NormM2: 1, NormW2: 0},
		{NormM2: math.NaN(), NormW2: 1},
		{NormM2: 1, NormW2: math.Inf(1)},
	}
	for i, cs := range bad {
		if err := alice.HandleClearShare(cs); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestNewAliceValidation(t *testing.T) {
	// Degenerate model: boundary misses the box.
	if _, err := similarity.NewAlice([]float64{1, 1}, 10, fastParams(), rand.Reader); err == nil {
		t.Fatal("no-boundary model should fail")
	}
	// 1-D model.
	if _, err := similarity.NewAlice([]float64{1}, 0, fastParams(), rand.Reader); err == nil {
		t.Fatal("1-D model should fail")
	}
}

func TestNewBobValidation(t *testing.T) {
	alice, _ := newPair(t)
	spec := alice.Spec()
	if _, err := similarity.NewBob(spec, []float64{1}, 0); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := similarity.NewBob(spec, []float64{0, 0}, 0); err == nil {
		t.Fatal("zero normal should fail")
	}
	spec.FieldBits = 300
	if _, err := similarity.NewBob(spec, []float64{1, 1}, 0); err == nil {
		t.Fatal("bad spec field bits should fail")
	}
}

func TestFreshRandomizersPerEvaluation(t *testing.T) {
	// Two evaluations of the same pair should produce identical T (the
	// randomizers cancel exactly) — the randomness must not leak into the
	// result.
	wA := []float64{0.7, -0.3, 0.4}
	wB := []float64{-0.2, 0.8, 0.1}
	r1, err := similarity.EvaluatePrivate(wA, 0.1, wB, 0, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := similarity.EvaluatePrivate(wA, 0.1, wB, 0, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.TSquared-r2.TSquared) > 1e-9*(1+r1.TSquared) {
		t.Fatalf("randomizers leaked into the result: %g vs %g", r1.TSquared, r2.TSquared)
	}
}

// TestKernelRoundSequence: each side counts RoundNormal instances from its
// own knowledge of |S_B| and refuses the area round early.
func TestKernelRoundSequence(t *testing.T) {
	if _, err := similarity.NewKernelBob(similarity.KernelSpec{}, nil); err == nil {
		t.Fatal("nil model should fail")
	}
	if _, err := similarity.NewKernelAlice(nil, fastParams(), rand.Reader); err == nil {
		t.Fatal("nil model should fail")
	}

	t.Run("alice-needs-clear-share", func(t *testing.T) {
		modelA, modelB := kernelModels(t)
		alice, err := similarity.NewKernelAlice(modelA, fastParams(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := similarity.NewKernelBob(alice.Spec(), modelB)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alice.AnnounceAreaScale(); err == nil {
			t.Fatal("area scale before the clear share should fail")
		}
		runRounds(t, alice, bob, similarity.RoundCentroid)
		req, err := bob.StartRound(similarity.RoundNormal, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alice.HandleRequest(similarity.RoundNormal, req, rand.Reader); err == nil {
			t.Fatal("normal round before the clear share should fail")
		}
	})

	t.Run("alice-counts-normals", func(t *testing.T) {
		alice, bob := kernelPair(t)
		// Alice is told of one more support vector than Bob runs: when Bob
		// moves on to the area round, she is still waiting for a normal.
		cs := *bob.ClearShare()
		cs.NumSupport++
		if err := alice.HandleClearShare(&cs); err != nil {
			t.Fatal(err)
		}
		scale, err := alice.AnnounceAreaScale()
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.SetAreaScale(scale); err != nil {
			t.Fatal(err)
		}
		runRounds(t, alice, bob, kernelRounds(cs.NumSupport-1, false)...)
		req, err := bob.StartRound(similarity.RoundArea, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alice.HandleRequest(similarity.RoundArea, req, rand.Reader); !errors.Is(err, similarity.ErrRound) {
			t.Fatalf("area round after %d of %d normals: %v, want ErrRound", cs.NumSupport-1, cs.NumSupport, err)
		}
	})

	t.Run("bob-needs-area-scale", func(t *testing.T) {
		alice, bob := kernelPair(t)
		n := bob.ClearShare().NumSupport
		runRounds(t, alice, bob, kernelRounds(n, false)...)
		if _, err := bob.StartRound(similarity.RoundArea, rand.Reader); err == nil {
			t.Fatal("area round before SetAreaScale should fail")
		}
	})
}

// TestKernelClearShareValidation: Alice refuses every malformed kernel
// clear share and accepts Bob's genuine one.
func TestKernelClearShareValidation(t *testing.T) {
	alice, bob := kernelPair(t)
	codec, err := alice.Spec().Codec()
	if err != nil {
		t.Fatal(err)
	}
	p := codec.Field().Modulus()
	good := *bob.ClearShare()
	with := func(edit func(*similarity.KernelClearShare)) *similarity.KernelClearShare {
		cs := good
		edit(&cs)
		return &cs
	}
	bad := map[string]*similarity.KernelClearShare{
		"nil":                nil,
		"no-support":         with(func(c *similarity.KernelClearShare) { c.NumSupport = 0 }),
		"negative-support":   with(func(c *similarity.KernelClearShare) { c.NumSupport = -1 }),
		"nil-alpha-sum":      with(func(c *similarity.KernelClearShare) { c.AlphaSum = nil }),
		"alpha-sum-p":        with(func(c *similarity.KernelClearShare) { c.AlphaSum = new(big.Int).Set(p) }),
		"alpha-sum-above-p":  with(func(c *similarity.KernelClearShare) { c.AlphaSum = new(big.Int).Lsh(p, 1) }),
		"alpha-sum-negative": with(func(c *similarity.KernelClearShare) { c.AlphaSum = big.NewInt(-1) }),
		"kmbmb-nan":          with(func(c *similarity.KernelClearShare) { c.KmBmB = math.NaN() }),
		"kmbmb-inf":          with(func(c *similarity.KernelClearShare) { c.KmBmB = math.Inf(-1) }),
		"kwbwb-nan":          with(func(c *similarity.KernelClearShare) { c.KwBwB = math.NaN() }),
		"kwbwb-inf":          with(func(c *similarity.KernelClearShare) { c.KwBwB = math.Inf(1) }),
		"kwbwb-zero":         with(func(c *similarity.KernelClearShare) { c.KwBwB = 0 }),
		"kwbwb-negative":     with(func(c *similarity.KernelClearShare) { c.KwBwB = -1 }),
	}
	for name, cs := range bad {
		if err := alice.HandleClearShare(cs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := alice.HandleClearShare(&good); err != nil {
		t.Fatalf("genuine clear share: %v", err)
	}
}

func TestSetAreaScaleValidation(t *testing.T) {
	alice, kbob := kernelPair(t)
	scale, err := alice.AnnounceAreaScale()
	if err != nil {
		t.Fatal(err)
	}
	if err := kbob.SetAreaScale(nil); err == nil {
		t.Fatal("nil scale should fail")
	}
	badScale := *scale
	badScale.TotalExp += 1
	if err := kbob.SetAreaScale(&badScale); err == nil {
		t.Fatal("inconsistent scale should fail")
	}
	if err := kbob.SetAreaScale(scale); err != nil {
		t.Fatal(err)
	}
}

func kernelModels(t *testing.T) (*svm.Model, *svm.Model) {
	t.Helper()
	spec, err := datasetSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 40, 5
	trainA, _, err := generate(spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	trainB, _, err := generate(spec, 32)
	if err != nil {
		t.Fatal(err)
	}
	k := paperPoly(spec.Dim)
	modelA, err := trainSVM(trainA.X, trainA.Y, k, 10)
	if err != nil {
		t.Fatal(err)
	}
	modelB, err := trainSVM(trainB.X, trainB.Y, k, 10)
	if err != nil {
		t.Fatal(err)
	}
	return modelA, modelB
}

// kernelPair builds a kernel Alice and Bob with Bob's clear share handed
// over.
func kernelPair(t *testing.T) (*similarity.KernelAlice, *similarity.KernelBob) {
	t.Helper()
	modelA, modelB := kernelModels(t)
	alice, err := similarity.NewKernelAlice(modelA, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := similarity.NewKernelBob(alice.Spec(), modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

func datasetSpec() (dataset.Spec, error) { return dataset.SpecByName("diabetes") }

func generate(spec dataset.Spec, seed uint64) (*dataset.Dataset, *dataset.Dataset, error) {
	return dataset.Generate(spec, dataset.Options{Seed: seed})
}

func paperPoly(dim int) svm.Kernel { return svm.PaperPolynomial(dim) }

func trainSVM(x [][]float64, y []int, k svm.Kernel, c float64) (*svm.Model, error) {
	return svm.Train(x, y, svm.Config{Kernel: k, C: c})
}

// TestKernelAliceFracBits: the kernel variant defaults to 12 fractional
// bits but honours any precision the caller sets, and 24 bits still fit
// the field and match the plaintext metric.
func TestKernelAliceFracBits(t *testing.T) {
	modelA, modelB := kernelModels(t)
	for _, tc := range []struct{ set, want uint }{{0, 12}, {24, 24}, {16, 16}} {
		params := fastParams()
		params.FracBits = tc.set
		alice, err := similarity.NewKernelAlice(modelA, params, rand.Reader)
		if err != nil {
			t.Fatalf("FracBits %d: %v", tc.set, err)
		}
		if got := alice.Spec().FracBits; got != tc.want {
			t.Errorf("FracBits %d: spec advertises %d, want %d", tc.set, got, tc.want)
		}
	}
	params := fastParams()
	params.FracBits = 24
	got, err := similarity.EvaluatePrivateKernel(modelA, modelB, params, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want, err := similarity.EvaluateKernel(modelA, modelB, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TSquared-want.TSquared) > 1e-4*(1+math.Abs(want.TSquared)) {
		t.Fatalf("FracBits 24: T² private %g, plaintext %g", got.TSquared, want.TSquared)
	}
}

// TestHostileSpecRefused: Bob handed a spec whose OMPE shape overflows
// int, M = (q+1)·k pairs with q or k at 2^62, must refuse it with
// ompe.ErrParams when he opens the first round, before allocating
// anything sized by it. A spec naming any OT group but x25519 must be
// refused with ot.ErrUnknownGroup by NewBob and NewKernelBob themselves,
// before any message.
func TestHostileSpecRefused(t *testing.T) {
	alice, err := similarity.NewAlice([]float64{0.8, -0.5}, 0.1, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	modelA, modelB := kernelModels(t)
	kernelAlice, err := similarity.NewKernelAlice(modelA, fastParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*similarity.Spec)
		want   error
		// lazy rows may pass the constructor and fail at the first message.
		lazy bool
	}{
		{"mask-degree-2^62", func(s *similarity.Spec) { s.MaskDegree = 1 << 62 }, ompe.ErrParams, true},
		{"cover-factor-2^62", func(s *similarity.Spec) { s.CoverFactor = 1 << 62 }, ompe.ErrParams, true},
		{"group-modp512-test", func(s *similarity.Spec) { s.GroupName = "modp512-test" }, ot.ErrUnknownGroup, false},
		{"group-modp2048", func(s *similarity.Spec) { s.GroupName = "modp2048" }, ot.ErrUnknownGroup, false},
		{"group-empty", func(s *similarity.Spec) { s.GroupName = "" }, ot.ErrUnknownGroup, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := alice.Spec()
			tc.mutate(&spec)
			bob, err := similarity.NewBob(spec, []float64{0.2, 0.9}, -0.2)
			if err == nil && tc.lazy {
				_, err = bob.StartRound(similarity.RoundCentroid, rand.Reader)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("NewBob: err = %v, want %v", err, tc.want)
			}
			kspec := kernelAlice.Spec()
			tc.mutate(&kspec.Spec)
			kbob, err := similarity.NewKernelBob(kspec, modelB)
			if err == nil && tc.lazy {
				_, err = kbob.StartRound(similarity.RoundCentroid, rand.Reader)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("NewKernelBob: err = %v, want %v", err, tc.want)
			}
		})
	}
}
