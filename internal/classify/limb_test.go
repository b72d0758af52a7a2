package classify_test

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/classify"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// TestFieldPicksEngine pins the one rule that chooses the arithmetic
// engine: the protocol's headroom sizes the field (field.ByBits), and a
// protocol that fits 2^255−19 runs on the limb engine, while every wider
// field runs math/big. Both send the same request form, records of
// field-width elements. No parameter names an engine. The paper's cubic
// at n = 8 decodes at per-degree scales and fits 2^255−19; a cubic past
// mvpoly.MaxRescaledNodes decodes at S^(2p+1) and stays on 2^521−1. A
// sigmoid truncated at 7 Taylor terms decodes at S^28 and needs 2^607−1,
// at 8 terms S^32 and 2^1279−1.
// Linear similarity is sized from its area value alone and fits
// 2^255−19 at its defaults.
func TestFieldPicksEngine(t *testing.T) {
	linear, test := trainSmall(t, svm.Linear(), 1)
	cubic, _ := trainSmall(t, svm.PaperPolynomial(8), 100)
	wideCubic, wideTest := trainSmallOn(t, "splice", svm.PaperPolynomial(60), 100)
	sigmoid, _ := trainSmall(t, svm.Sigmoid(0.125, 0), 10)
	wA, wB := []float64{0.7, -0.4, 0.2}, []float64{-0.1, 0.9, 0.3}
	// The request builders take the subtest's t, so one refused
	// configuration fails its own row and the others still run.
	classifyRequest := func(t *testing.T, model *svm.Model, sample []float64, params classify.Params) (int, *ompe.EvalRequest) {
		t.Helper()
		trainer, err := classify.NewTrainer(model, params)
		if err != nil {
			t.Fatal(err)
		}
		client, err := classify.NewClient(trainer.Spec())
		if err != nil {
			t.Fatal(err)
		}
		_, req, err := client.NewSession(sample, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return trainer.Spec().FieldBits, req
	}
	similarityRequest := func(t *testing.T, params similarity.Params) (int, *ompe.EvalRequest) {
		t.Helper()
		alice, err := similarity.NewAlice(wA, 0.05, params, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := similarity.NewBob(alice.Spec(), wB, -0.12)
		if err != nil {
			t.Fatal(err)
		}
		req, err := bob.StartRound(similarity.RoundCentroid, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return alice.Spec().FieldBits, req
	}
	for _, tc := range []struct {
		name     string
		run      func(t *testing.T) (int, *ompe.EvalRequest)
		wantBits int
	}{
		{"classify-linear-defaults", func(t *testing.T) (int, *ompe.EvalRequest) {
			return classifyRequest(t, linear, test.X[0], classify.Params{})
		}, 255},
		{"classify-paper-cubic", func(t *testing.T) (int, *ompe.EvalRequest) {
			return classifyRequest(t, cubic, test.X[0], fastParams())
		}, 255},
		{"classify-cubic-past-rescaled-cap", func(t *testing.T) (int, *ompe.EvalRequest) {
			return classifyRequest(t, wideCubic, wideTest.X[0], fastParams())
		}, 521},
		{"classify-sigmoid-7-terms", func(t *testing.T) (int, *ompe.EvalRequest) {
			params := fastParams()
			params.TaylorTerms = 7
			return classifyRequest(t, sigmoid, test.X[0], params)
		}, 607},
		{"classify-sigmoid-8-terms", func(t *testing.T) (int, *ompe.EvalRequest) {
			params := fastParams()
			params.TaylorTerms = 8
			return classifyRequest(t, sigmoid, test.X[0], params)
		}, 1279},
		{"similarity-defaults", func(t *testing.T) (int, *ompe.EvalRequest) {
			return similarityRequest(t, similarity.Params{})
		}, 255},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bits, req := tc.run(t)
			if bits != tc.wantBits {
				t.Fatalf("%d-bit field, want %d", bits, tc.wantBits)
			}
			if elen := (bits + 7) / 8; len(req.Packed) == 0 || len(req.Packed)%elen != 0 {
				t.Fatalf("%d-byte request is not a run of %d-byte elements", len(req.Packed), elen)
			}
			if len(req.Seed) != ot.SeedLen {
				t.Fatalf("%d-byte point seed, want %d", len(req.Seed), ot.SeedLen)
			}
		})
	}
}

func TestNewSessionForRejectsForeignSpec(t *testing.T) {
	model, _ := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := trainer.Spec()
	spec.MaskDegree++
	if _, err := trainer.NewSessionFor(spec); err == nil {
		t.Fatal("divergent spec accepted")
	}
	spec = trainer.Spec()
	spec.FieldBits = 521
	if _, err := trainer.NewSessionFor(spec); err == nil {
		t.Fatal("spec on another field accepted")
	}
}

// requireLimbAgreement runs the same samples through a trainer on the
// 2^255−19 field, and so on the limb engine, and asserts it reproduces the
// plaintext label.
func requireLimbAgreement(t *testing.T, k svm.Kernel, c float64, mutate func(*classify.Params)) {
	t.Helper()
	model, test := trainSmall(t, k, c)

	lp := fastParams()
	if mutate != nil {
		mutate(&lp)
	}
	limbTrainer, err := classify.NewTrainer(model, lp)
	if err != nil {
		t.Fatal(err)
	}
	if bits := limbTrainer.Spec().FieldBits; bits != 255 {
		t.Fatalf("trainer on a %d-bit field, want 255", bits)
	}
	limbClient, err := classify.NewClient(limbTrainer.Spec())
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for i, sample := range test.X {
		d, err := model.Decision(sample)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d) < 1e-6 {
			continue
		}
		want := 1
		if d < 0 {
			want = -1
		}
		got, err := classify.ClassifyWith(limbTrainer, limbClient, sample, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: limb label %d, plaintext %d (d=%g)", i, got, want, d)
		}
		checked++
		if checked >= 8 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}

func TestLimbLinearMatchesPlaintext(t *testing.T) {
	requireLimbAgreement(t, svm.Linear(), 1, nil)
}

func TestLimbPolyDirectMatchesPlaintext(t *testing.T) {
	requireLimbAgreement(t, svm.PaperPolynomial(8), 100, nil)
}

func TestLimbPolyExpandedMatchesPlaintext(t *testing.T) {
	requireLimbAgreement(t, svm.PaperPolynomial(8), 100, func(p *classify.Params) {
		p.Mode = classify.ModeExpanded
	})
}

// TestLimbRBFMatchesBigLabels serves one RBF model at one precision on
// both engines: a wider amplifier pushes the second trainer's protocol
// past 255 bits onto 2^521−1 and math/big.
func TestLimbRBFMatchesBigLabels(t *testing.T) {
	model, test := trainSmall(t, svm.RBF(0.05), 100)

	lp := fastParams()
	lp.FracBits = 16
	limbTrainer, err := classify.NewTrainer(model, lp)
	if err != nil {
		t.Fatal(err)
	}
	bp := lp
	bp.AmplifierBits = 200
	bigTrainer, err := classify.NewTrainer(model, bp)
	if err != nil {
		t.Fatal(err)
	}
	if lb, bb := limbTrainer.Spec().FieldBits, bigTrainer.Spec().FieldBits; lb != 255 || bb != 521 {
		t.Fatalf("fields of %d and %d bits, want 255 and 521", lb, bb)
	}
	limbClient, err := classify.NewClient(limbTrainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	bigClient, err := classify.NewClient(bigTrainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range test.X[:6] {
		lg, err := classify.ClassifyWith(limbTrainer, limbClient, sample, rand.Reader)
		if err != nil {
			t.Fatalf("limb sample %d: %v", i, err)
		}
		bg, err := classify.ClassifyWith(bigTrainer, bigClient, sample, rand.Reader)
		if err != nil {
			t.Fatalf("big sample %d: %v", i, err)
		}
		if lg != bg {
			t.Fatalf("sample %d: limb label %d, big label %d", i, lg, bg)
		}
	}
}

// TestLimbFastBatchOverX25519 exercises the full fast-session stack on the
// target production configuration: the limb engine + X25519 base OT.
func TestLimbFastBatchOverX25519(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}

	spec := trainer.Spec()
	fc, setup, err := classify.NewFastClient(spec, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ft, choice, err := trainer.NewFastSessionFor(spec, setup, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fc.FinishBase(choice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.FinishBase(tr); err != nil {
		t.Fatal(err)
	}

	samples := make([][]float64, 0, 8)
	want := make([]int, 0, 8)
	for _, sample := range test.X {
		d, err := model.Decision(sample)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d) < 1e-6 {
			continue
		}
		label := 1
		if d < 0 {
			label = -1
		}
		samples = append(samples, sample)
		want = append(want, label)
		if len(samples) == 8 {
			break
		}
	}
	got, err := classify.ClassifyFastBatch(ft, fc, samples, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: batch label %d, plaintext %d", i, got[i], want[i])
		}
	}
}
