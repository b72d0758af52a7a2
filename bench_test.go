package ppdc_test

// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// DESIGN.md §4 for the experiment index) plus ablations over the design
// choices. `go test -bench=. -benchmem` runs them all; cmd/ppdc-bench
// prints the corresponding tables/series.
//
// Protocol benches use the 512-bit toy OT group so a full sweep stays
// tractable; BenchmarkAblation_OTGroupBits quantifies what production
// groups cost instead.

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	ppdc "repro"
	"repro/internal/attack"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/mvpoly"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/paillier"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// fixtures caches trained models shared across benchmarks.
type fixtures struct {
	once sync.Once
	err  error

	diabetesTrain *dataset.Dataset
	diabetesTest  *dataset.Dataset
	linModel      *ppdc.Model
	polyModel     *ppdc.Model

	a1aTrain *dataset.Dataset
	a1aTest  *dataset.Dataset
	a1aLin   *ppdc.Model
	a1aPoly  *ppdc.Model
}

var bench fixtures

func setup(b *testing.B) *fixtures {
	b.Helper()
	bench.once.Do(func() {
		bench.err = bench.build()
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return &bench
}

func (f *fixtures) build() error {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		return err
	}
	f.diabetesTrain, f.diabetesTest, err = dataset.Generate(spec, dataset.Options{Seed: 1})
	if err != nil {
		return err
	}
	f.linModel, err = svm.Train(f.diabetesTrain.X, f.diabetesTrain.Y, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	if err != nil {
		return err
	}
	f.polyModel, err = svm.Train(f.diabetesTrain.X, f.diabetesTrain.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC})
	if err != nil {
		return err
	}
	aSpec, err := dataset.SpecByName("a1a")
	if err != nil {
		return err
	}
	aSpec.TrainSize = 400 // keep bench setup quick; Fig9's full run uses the catalog size
	f.a1aTrain, f.a1aTest, err = dataset.Generate(aSpec, dataset.Options{Seed: 1})
	if err != nil {
		return err
	}
	f.a1aLin, err = svm.Train(f.a1aTrain.X, f.a1aTrain.Y, svm.Config{Kernel: svm.Linear(), C: aSpec.LinC})
	if err != nil {
		return err
	}
	f.a1aPoly, err = svm.Train(f.a1aTrain.X, f.a1aTrain.Y, svm.Config{Kernel: svm.PaperPolynomial(aSpec.Dim), C: aSpec.PolyC})
	if err != nil {
		return err
	}
	return nil
}

func benchTrainer(b *testing.B, model *ppdc.Model, params classify.Params) (*classify.Trainer, *classify.Client) {
	b.Helper()
	if params.Group == nil {
		params.Group = ot.Group512Test()
	}
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		b.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		b.Fatal(err)
	}
	return trainer, client
}

// --- Table I: training cost of the two kernels (the substrate the
// accuracy table rests on). ---

func BenchmarkTable1_TrainLinear(b *testing.B) {
	f := setup(b)
	spec, _ := dataset.SpecByName("diabetes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(f.diabetesTrain.X, f.diabetesTrain.Y, svm.Config{Kernel: svm.Linear(), C: spec.LinC}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_TrainPolynomial(b *testing.B) {
	f := setup(b)
	spec, _ := dataset.SpecByName("diabetes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(f.diabetesTrain.X, f.diabetesTrain.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: the collusion attack's cost per estimation attempt. ---

func BenchmarkFig5_ModelEstimation(b *testing.B) {
	opts := experiments.Options{Seed: 1, Group: ot.Group512Test()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(opts, []int{10}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: exact recovery from n+1 unamplified values. ---

func BenchmarkFig6_ExactRecovery(b *testing.B) {
	samples := [][]float64{{0.1, 0.7}, {-0.5, 0.2}, {0.4, -0.6}}
	values := []float64{0.35, -0.21, 0.44}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := attack.RecoverExact(samples, values); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7 / Fig. 8: per-query private classification (linear and
// nonlinear), the unit of the accuracy figures. ---

func BenchmarkFig7_PrivateLinearQuery(b *testing.B) {
	f := setup(b)
	trainer, client := benchTrainer(b, f.linModel, classify.Params{})
	sample := f.diabetesTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_PrivateNonlinearQuery(b *testing.B) {
	f := setup(b)
	trainer, client := benchTrainer(b, f.polyModel, classify.Params{})
	sample := f.diabetesTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9: the four per-query series on the a-series data (123 dims).

func BenchmarkFig9_OriginalLinear(b *testing.B) {
	f := setup(b)
	sample := f.a1aTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.a1aLin.Classify(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_OriginalNonlinear(b *testing.B) {
	f := setup(b)
	sample := f.a1aTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.a1aPoly.Classify(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_PrivateLinear(b *testing.B) {
	f := setup(b)
	trainer, client := benchTrainer(b, f.a1aLin, classify.Params{})
	sample := f.a1aTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_PrivateNonlinear(b *testing.B) {
	f := setup(b)
	trainer, client := benchTrainer(b, f.a1aPoly, classify.Params{})
	sample := f.a1aTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: one private similarity evaluation between two trained
// subset models. ---

func BenchmarkTable2_PrivateSimilarity(b *testing.B) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		b.Fatal(err)
	}
	subsets, err := dataset.GenerateShiftedSubsets(spec, 2, 192, []float64{0.5, 0}, dataset.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type lin struct {
		w []float64
		c float64
	}
	models := make([]lin, 2)
	for i, sub := range subsets {
		m, err := svm.Train(sub.X, sub.Y, svm.Config{Kernel: svm.Linear(), C: 1})
		if err != nil {
			b.Fatal(err)
		}
		w, err := m.LinearWeights()
		if err != nil {
			b.Fatal(err)
		}
		models[i] = lin{w: w, c: m.Bias}
	}
	params := similarity.Params{Group: ot.Group512Test()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.EvaluatePrivate(models[0].w, models[0].c, models[1].w, models[1].c, params, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_KSBaseline(b *testing.B) {
	f := setup(b)
	half := f.diabetesTrain.Len() / 2
	a := f.diabetesTrain.X[:half]
	c := f.diabetesTrain.X[half:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ksAverage(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 10: similarity evaluation cost by dimension, both series. ---

func BenchmarkFig10_PrivateSimilarity(b *testing.B) {
	for _, dim := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			w1, c1 := planeForDim(dim, 1)
			w2, c2 := planeForDim(dim, 2)
			params := similarity.Params{Group: ot.Group512Test()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := similarity.EvaluatePrivate(w1, c1, w2, c2, params, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig10_OrdinarySimilarity(b *testing.B) {
	metric := similarity.DefaultMetric()
	for _, dim := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			w1, c1 := planeForDim(dim, 1)
			w2, c2 := planeForDim(dim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := similarity.EvaluateLinear(w1, c1, w2, c2, metric); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations over the design choices DESIGN.md calls out. ---

// BenchmarkAblation_NonlinearDirectVsExpanded compares the paper's
// degree-p·q direct kernel evaluation against the expanded-τ linear form.
func BenchmarkAblation_NonlinearDirectVsExpanded(b *testing.B) {
	f := setup(b)
	sample := f.diabetesTest.X[0]
	for _, mode := range []classify.Mode{classify.ModeDirect, classify.ModeExpanded} {
		name := "direct"
		if mode == classify.ModeExpanded {
			name = "expanded"
		}
		b.Run(name, func(b *testing.B) {
			trainer, client := benchTrainer(b, f.polyModel, classify.Params{Mode: mode})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MaskingDegree sweeps the security parameter q.
func BenchmarkAblation_MaskingDegree(b *testing.B) {
	f := setup(b)
	sample := f.diabetesTest.X[0]
	for _, q := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			trainer, client := benchTrainer(b, f.linModel, classify.Params{MaskDegree: q})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_CoverFactor sweeps the decoy multiplier k (M = m·k).
func BenchmarkAblation_CoverFactor(b *testing.B) {
	f := setup(b)
	sample := f.diabetesTest.X[0]
	for _, k := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			trainer, client := benchTrainer(b, f.linModel, classify.Params{CoverFactor: k})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_OTGroupBits prices the oblivious transfer's security
// level.
func BenchmarkAblation_OTGroupBits(b *testing.B) {
	f := setup(b)
	sample := f.diabetesTest.X[0]
	groups := []ot.Group{ot.Group512Test(), ot.Group1024(), ot.Group1536(), ot.Group2048()}
	for _, g := range groups {
		b.Run(g.Name(), func(b *testing.B) {
			trainer, client := benchTrainer(b, f.linModel, classify.Params{Group: g})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PaillierBaseline prices the Rahulamathavan-style
// homomorphic baseline the paper dismisses, per query, against our OMPE
// per-query cost (BenchmarkFig7_PrivateLinearQuery).
func BenchmarkAblation_PaillierBaseline(b *testing.B) {
	f := setup(b)
	w, err := f.linModel.LinearWeights()
	if err != nil {
		b.Fatal(err)
	}
	client, err := paillier.NewBaselineClient(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	trainer, err := paillier.NewBaselineTrainer(client.PublicKey(), w, f.linModel.Bias)
	if err != nil {
		b.Fatal(err)
	}
	sample := f.diabetesTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := client.EncryptSample(sample, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := trainer.Classify(enc, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.DecryptLabel(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOMPE_Primitive isolates one oblivious polynomial evaluation of
// the core primitive (8-variate linear polynomial).
func BenchmarkOMPE_Primitive(b *testing.B) {
	fld := fieldDefault()
	w, err := fld.RandVec(rand.Reader, 8)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := linearEvalForBench(fld, w)
	if err != nil {
		b.Fatal(err)
	}
	params := ompe.Params{Field: fld, PolyDegree: 1, MaskDegree: 2, CoverFactor: 2, Group: ot.Group512Test()}
	input, err := fld.RandVec(rand.Reader, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ompe.Run(params, eval, input, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine: the worker-count sweep over the concurrent masked
// evaluation + batch OT pipeline (DESIGN.md "Concurrency architecture").
// Every parallel.For runs at GOMAXPROCS, so sweep it with -cpu: -cpu 1 is
// the exact serial baseline (bit-identical messages given the same rng
// stream); more fan the masked evaluations, request construction, and
// batch-OT exponentiations across cores. ---

// parallelismSweepEvaluator builds the degree-2 bivariate polynomial the
// sweep evaluates: with MaskDegree 2 the composed degree is D = 4, m = 5
// genuine points, and CoverFactor 100 gives M = 500 masked pairs/query.
func parallelismSweepEvaluator(b *testing.B, fld *field.Field) ompe.Evaluator {
	b.Helper()
	p, err := mvpoly.New(fld, 2, []mvpoly.Term{
		{Coeff: big.NewInt(1), Exps: []uint{2, 0}},
		{Coeff: big.NewInt(3), Exps: []uint{1, 1}},
		{Coeff: big.NewInt(1), Exps: []uint{0, 1}},
		{Coeff: big.NewInt(5), Exps: []uint{0, 0}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// parallelismSweepParams is the sweep's M = 500 OMPE shape.
func parallelismSweepParams(fld *field.Field) ompe.Params {
	return ompe.Params{
		Field:       fld,
		PolyDegree:  2,
		MaskDegree:  2,
		CoverFactor: 100, // M = 500
		Group:       ot.Group512Test(),
	}
}

// BenchmarkParallelism_OMPEEndToEnd runs one full nonlinear OMPE exchange
// with M = 500 pairs per query.
func BenchmarkParallelism_OMPEEndToEnd(b *testing.B) {
	fld := fieldDefault()
	eval := parallelismSweepEvaluator(b, fld)
	input, err := fld.RandVec(rand.Reader, 2)
	if err != nil {
		b.Fatal(err)
	}
	params := parallelismSweepParams(fld)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ompe.Run(params, eval, input, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(params.TotalPairs())*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkParallelism_MaskedEvaluations isolates the sender's masked
// evaluation stage (no OT): the pure-arithmetic region the worker pool
// chunks.
func BenchmarkParallelism_MaskedEvaluations(b *testing.B) {
	fld := fieldDefault()
	eval := parallelismSweepEvaluator(b, fld)
	input, err := fld.RandVec(rand.Reader, 2)
	if err != nil {
		b.Fatal(err)
	}
	params := parallelismSweepParams(fld)
	_, req, err := ompe.NewReceiver(params, input, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ompe.MaskedEvaluations(params, eval, req, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(params.TotalPairs())*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkParallelism_PrivateNonlinearQuery runs the full classifier
// pipeline (trainer + client) on the diabetes polynomial model.
func BenchmarkParallelism_PrivateNonlinearQuery(b *testing.B) {
	f := setup(b)
	sample := f.diabetesTest.X[0]
	trainer, client := benchTrainer(b, f.polyModel, classify.Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyWith(trainer, client, sample, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_PrivateLinearFast prices the IKNP fast session against
// BenchmarkFig9_PrivateLinear: after the one-time base phase, per-query
// cost drops to field arithmetic plus symmetric crypto.
func BenchmarkFig9_PrivateLinearFast(b *testing.B) {
	f := setup(b)
	trainer, _ := benchTrainer(b, f.a1aLin, classify.Params{})
	ft, fc, err := classify.NewFastPair(trainer, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	sample := f.a1aTest.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.ClassifyFastBatch(ft, fc, [][]float64{sample}, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastSessionBasePhase prices the one-time session setup the
// fast path amortizes.
func BenchmarkFastSessionBasePhase(b *testing.B) {
	f := setup(b)
	trainer, _ := benchTrainer(b, f.linModel, classify.Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := classify.NewFastPair(trainer, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
