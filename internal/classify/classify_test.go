package classify_test

import (
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand/v2"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/svm"
)

// fastParams keeps protocol tests quick: small masking.
func fastParams() classify.Params {
	return classify.Params{
		MaskDegree:  2,
		CoverFactor: 2,
	}
}

func trainSmall(t *testing.T, k svm.Kernel, c float64) (*svm.Model, *dataset.Dataset) {
	t.Helper()
	return trainSmallOn(t, "diabetes", k, c)
}

// trainSmallOn trains on 60 samples of the named synthetic dataset and
// returns the model with 40 test samples.
func trainSmallOn(t *testing.T, name string, k svm.Kernel, c float64) (*svm.Model, *dataset.Dataset) {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize = 60
	spec.TestSize = 40
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: k, C: c})
	if err != nil {
		t.Fatal(err)
	}
	return model, test
}

// requireAgreement checks that the private protocol reproduces the
// plaintext model's label on every test sample whose decision value is
// comfortably away from zero (fixed-point rounding can legitimately flip
// samples within ~2^-fracBits of the boundary).
func requireAgreement(t *testing.T, model *svm.Model, test *dataset.Dataset, params classify.Params) {
	t.Helper()
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
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
		got, err := classify.ClassifyWith(trainer, client, sample, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: private label %d, plaintext %d (d=%g)", i, got, want, d)
		}
		checked++
		if checked >= 12 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}

func TestPrivateLinearMatchesPlaintext(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	requireAgreement(t, model, test, fastParams())
}

func TestPrivatePolyDirectMatchesPlaintext(t *testing.T) {
	model, test := trainSmall(t, svm.PaperPolynomial(8), 100)
	requireAgreement(t, model, test, fastParams())
}

func TestPrivatePolyExpandedMatchesPlaintext(t *testing.T) {
	model, test := trainSmall(t, svm.PaperPolynomial(8), 100)
	params := fastParams()
	params.Mode = classify.ModeExpanded
	requireAgreement(t, model, test, params)
}

// TestPrivateRBFMatchesTruncatedModel compares the protocol against the
// Taylor-truncated RBF decision function (the protocol's actual target;
// the truncation error itself is a property of internal/kernel).
func TestPrivateRBFMatchesTruncatedModel(t *testing.T) {
	model, test := trainSmall(t, svm.RBF(0.125), 10)
	params := fastParams()
	params.TaylorTerms = 3
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, sample := range test.X {
		d := truncatedRBFDecision(t, model, sample, params.TaylorTerms)
		if math.Abs(d) < 1e-6 {
			continue
		}
		want := 1
		if d < 0 {
			want = -1
		}
		got, err := classify.ClassifyWith(trainer, client, sample, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: private label %d, truncated-model label %d (d=%g)", i, got, want, d)
		}
		checked++
		if checked >= 6 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}

func TestPrivateSigmoidMatchesTruncatedModel(t *testing.T) {
	model, test := trainSmall(t, svm.Sigmoid(0.125, 0), 10)
	params := fastParams()
	params.TaylorTerms = 3
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, sample := range test.X {
		d := truncatedSigmoidDecision(t, model, sample, params.TaylorTerms)
		if math.Abs(d) < 1e-6 {
			continue
		}
		want := 1
		if d < 0 {
			want = -1
		}
		got, err := classify.ClassifyWith(trainer, client, sample, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: private label %d, truncated-model label %d (d=%g)", i, got, want, d)
		}
		checked++
		if checked >= 6 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}

func truncatedRBFDecision(t *testing.T, m *svm.Model, sample []float64, terms int) float64 {
	t.Helper()
	acc := m.Bias
	for s, sv := range m.SupportVectors {
		d2 := 0.0
		for j := range sv {
			diff := sv[j] - sample[j]
			d2 += diff * diff
		}
		k, err := kernel.RBFApprox(m.Kernel.Gamma, d2, terms)
		if err != nil {
			t.Fatal(err)
		}
		acc += m.AlphaY[s] * k
	}
	return acc
}

func truncatedSigmoidDecision(t *testing.T, m *svm.Model, sample []float64, terms int) float64 {
	t.Helper()
	acc := m.Bias
	for s, sv := range m.SupportVectors {
		u := m.Kernel.C0
		for j := range sv {
			u += m.Kernel.A0 * sv[j] * sample[j]
		}
		k, err := kernel.TanhApprox(u, terms)
		if err != nil {
			t.Fatal(err)
		}
		acc += m.AlphaY[s] * k
	}
	return acc
}

// TestConcurrentClassification: one Trainer must serve concurrent sessions
// safely (each session is an independent one-shot sender; the trainer's
// evaluator is read-only).
func TestConcurrentClassification(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			client, err := classify.NewClient(trainer.Spec())
			if err != nil {
				errCh <- err
				return
			}
			sample := test.X[idx%len(test.X)]
			want, err := model.Classify(sample)
			if err != nil {
				errCh <- err
				return
			}
			d, err := model.Decision(sample)
			if err != nil {
				errCh <- err
				return
			}
			if math.Abs(d) < 1e-6 {
				return
			}
			got, err := classify.ClassifyWith(trainer, client, sample, rand.Reader)
			if err != nil {
				errCh <- err
				return
			}
			if got != want {
				errCh <- fmt.Errorf("worker %d: got %d want %d", idx, got, want)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestRandomLinearModelsProperty quick-checks the protocol across random
// model dimensions and coefficients: private sign must equal plaintext
// sign whenever the decision value is away from the rounding boundary.
func TestRandomLinearModelsProperty(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(17, 23))
	for trial := 0; trial < 8; trial++ {
		dim := 2 + rng.IntN(5)
		sv := make([][]float64, 3)
		alphaY := make([]float64, 3)
		for i := range sv {
			sv[i] = make([]float64, dim)
			for j := range sv[i] {
				sv[i][j] = rng.Float64()*2 - 1
			}
			alphaY[i] = rng.Float64()*4 - 2
		}
		model := &svm.Model{
			Kernel:         svm.Linear(),
			SupportVectors: sv,
			AlphaY:         alphaY,
			Bias:           rng.Float64() - 0.5,
			Dim:            dim,
		}
		trainer, err := classify.NewTrainer(model, fastParams())
		if err != nil {
			t.Fatal(err)
		}
		client, err := classify.NewClient(trainer.Spec())
		if err != nil {
			t.Fatal(err)
		}
		sample := make([]float64, dim)
		for j := range sample {
			sample[j] = rng.Float64()*2 - 1
		}
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
		got, err := classify.ClassifyWith(trainer, client, sample, rand.Reader)
		if err != nil {
			t.Fatalf("trial %d (dim %d): %v", trial, dim, err)
		}
		if got != want {
			t.Fatalf("trial %d (dim %d): private %d, plaintext %d (d=%g)", trial, dim, got, want, d)
		}
	}
}

// TestFastSessionMatchesPlaintext: the IKNP fast path must label exactly
// like the plaintext model across sequential queries on one session.
func TestFastSessionMatchesPlaintext(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	ft, fc, err := classify.NewFastPair(trainer, rand.Reader)
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
		got, err := classify.ClassifyFastBatch(ft, fc, [][]float64{sample}, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got[0] != want {
			t.Fatalf("sample %d: fast label %d, plaintext %d", i, got[0], want)
		}
		checked++
		if checked >= 15 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}

// TestFastSessionNonlinear: the fast path also serves kernel models.
func TestFastSessionNonlinear(t *testing.T) {
	model, test := trainSmall(t, svm.PaperPolynomial(8), 100)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	ft, fc, err := classify.NewFastPair(trainer, rand.Reader)
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
		got, err := classify.ClassifyFastBatch(ft, fc, [][]float64{sample}, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got[0] != want {
			t.Fatalf("sample %d: fast label %d, plaintext %d", i, got[0], want)
		}
		checked++
		if checked >= 6 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
}
