package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/mvpoly"
	"repro/internal/ompe"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// Fig9Row is one x-position of Fig. 9: classification time versus data
// size for the four series (linear/nonlinear × original/private).
type Fig9Row struct {
	Dataset  string
	TestSize int
	// DataKB is the paper's horizontal axis: classification data volume
	// (samples × dims × 8 bytes), in KB.
	DataKB float64
	// Totals are the projected cost of classifying the whole test set,
	// measured as per-query cost on MeasuredQueries samples × TestSize.
	LinearOriginal    time.Duration
	NonlinearOriginal time.Duration
	LinearPrivate     time.Duration
	NonlinearPrivate  time.Duration
	// LinearPrivateFast is the IKNP fast-session series (extension):
	// per-query cost with the base phase amortized away.
	LinearPrivateFast time.Duration
	MeasuredQueries   int
}

// Fig9 reproduces "Computational Cost Comparison of Classification" over
// the a1a–a9a series. The expected shape: all four series grow linearly
// with data size; the private schemes cost a constant factor more than
// the originals (the paper reports ≈4× on its C++/LIBSVM substrate), and
// nonlinear costs more than linear.
func Fig9(opts Options) ([]Fig9Row, error) {
	opts = opts.withDefaults()
	names := []string{"a1a", "a2a", "a3a", "a4a", "a5a", "a6a", "a7a", "a8a", "a9a"}
	if opts.Quick {
		names = []string{"a1a", "a3a", "a5a", "a7a", "a9a"}
	}
	measured := 20
	if opts.Quick {
		measured = 6
	}

	var rows []Fig9Row
	for _, name := range names {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return nil, err
		}
		row, err := fig9Row(spec, opts, measured)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func fig9Row(spec dataset.Spec, opts Options, measured int) (*Fig9Row, error) {
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: opts.Seed, FullScale: opts.FullScale})
	if err != nil {
		return nil, err
	}
	linModel, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	if err != nil {
		return nil, err
	}
	polyModel, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC})
	if err != nil {
		return nil, err
	}
	if measured > test.Len() {
		measured = test.Len()
	}
	samples := test.X[:measured]

	perQuery := func(f func(s []float64) error) (time.Duration, error) {
		start := time.Now()
		for _, s := range samples {
			if err := f(s); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(len(samples)), nil
	}

	linOrig, err := perQuery(func(s []float64) error { _, err := linModel.Classify(s); return err })
	if err != nil {
		return nil, err
	}
	polyOrig, err := perQuery(func(s []float64) error { _, err := polyModel.Classify(s); return err })
	if err != nil {
		return nil, err
	}

	linTrainer, err := classify.NewTrainer(linModel, classify.Params{Group: opts.Group})
	if err != nil {
		return nil, err
	}
	linClient, err := classify.NewClient(linTrainer.Spec())
	if err != nil {
		return nil, err
	}
	linPriv, err := perQuery(func(s []float64) error {
		_, err := classify.ClassifyWith(linTrainer, linClient, s, opts.Rand)
		return err
	})
	if err != nil {
		return nil, err
	}

	polyTrainer, err := classify.NewTrainer(polyModel, classify.Params{Group: opts.Group})
	if err != nil {
		return nil, err
	}
	polyClient, err := classify.NewClient(polyTrainer.Spec())
	if err != nil {
		return nil, err
	}
	polyPriv, err := perQuery(func(s []float64) error {
		_, err := classify.ClassifyWith(polyTrainer, polyClient, s, opts.Rand)
		return err
	})
	if err != nil {
		return nil, err
	}

	fastTrainer, fastClient, err := classify.NewFastPair(linTrainer, opts.Rand)
	if err != nil {
		return nil, err
	}
	linFast, err := perQuery(func(s []float64) error {
		_, err := classify.ClassifyFastBatch(fastTrainer, fastClient, [][]float64{s}, opts.Rand)
		return err
	})
	if err != nil {
		return nil, err
	}

	size := spec.PaperTestSize
	if !opts.FullScale {
		size = test.Len()
	}
	n := time.Duration(size)
	return &Fig9Row{
		Dataset:           spec.Name,
		TestSize:          size,
		DataKB:            float64(size*spec.Dim*8) / 1024,
		LinearOriginal:    linOrig * n,
		NonlinearOriginal: polyOrig * n,
		LinearPrivate:     linPriv * n,
		NonlinearPrivate:  polyPriv * n,
		LinearPrivateFast: linFast * n,
		MeasuredQueries:   len(samples),
	}, nil
}

// Fig10Row is one x-position of Fig. 10: similarity-evaluation time
// versus hyperplane dimension, private vs ordinary.
//
// Private is the full wall-clock protocol (dominated by the OT group
// arithmetic, nearly flat in n). The paper's nanosecond-scale Fig. 10 can
// only have measured the masking/metric arithmetic itself, so PrivateCore
// times exactly that (cover-polynomial generation + masked evaluations +
// interpolation for all three rounds, no OT) and OrdinaryCore times the
// clear metric arithmetic given precomputed centroids — those two series
// reproduce the paper's shape: per-dimension cost of the private scheme
// grows much faster than the ordinary scheme's single multiplication.
//
// CoreElements is the work PrivateCore times, as a count that depends only
// on the dimension and the protocol parameters: the field elements one
// evaluation masks and evaluates (see privateMaskingCore). Two timings of a
// few hundred microseconds cannot be ordered reliably on a shared host; the
// count can.
type Fig10Row struct {
	Dim          int
	Private      time.Duration
	PrivateCore  time.Duration
	CoreElements int
	Ordinary     time.Duration
	OrdinaryCore time.Duration
}

// Fig10Dims are the paper's dimensions.
var Fig10Dims = []int{2, 3, 4, 5, 6, 7, 8}

// Fig10 reproduces "Computational Cost Comparison of Similarity
// Evaluation": random linear models per dimension, timing one private
// evaluation against one ordinary (clear-text) evaluation. Expected
// shape: the private cost grows much faster with dimension (each added
// dimension adds cover polynomials), while the ordinary metric stays
// cheap.
func Fig10(opts Options, dims []int) ([]Fig10Row, error) {
	opts = opts.withDefaults()
	if len(dims) == 0 {
		dims = Fig10Dims
	}
	reps := 3
	if opts.Quick {
		reps = 1
	}
	params := similarity.Params{Group: opts.Group}
	metric := similarity.DefaultMetric()
	var rows []Fig10Row
	for _, dim := range dims {
		srng := opts.sampleRNG(uint64(dim) * 7919)
		wA, bA := randomHyperplane(srng, dim)
		wB, bB := randomHyperplane(srng, dim)

		var privTotal, ordTotal time.Duration
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := similarity.EvaluatePrivate(wA, bA, wB, bB, params, opts.Rand); err != nil {
				return nil, fmt.Errorf("fig10 dim=%d: %w", dim, err)
			}
			privTotal += time.Since(start)

			start = time.Now()
			if _, err := similarity.EvaluateLinear(wA, bA, wB, bB, metric); err != nil {
				return nil, fmt.Errorf("fig10 dim=%d ordinary: %w", dim, err)
			}
			ordTotal += time.Since(start)
		}
		privCore, coreElements, err := privateMaskingCore(dim, opts)
		if err != nil {
			return nil, err
		}
		ordCore, err := ordinaryCore(wA, bA, wB, bB, metric)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Dim:          dim,
			Private:      privTotal / time.Duration(reps),
			PrivateCore:  privCore,
			CoreElements: coreElements,
			Ordinary:     ordTotal / time.Duration(reps),
			OrdinaryCore: ordCore,
		})
	}
	return rows, nil
}

// ordinaryCore times the clear-text metric arithmetic with centroids
// precomputed (the per-dimension work of the paper's "ordinary" series).
func ordinaryCore(wA []float64, bA float64, wB []float64, bB float64, metric similarity.Metric) (time.Duration, error) {
	ptsA, err := similarity.LinearBoundaryPoints(wA, bA, metric)
	if err != nil {
		return 0, err
	}
	ptsB, err := similarity.LinearBoundaryPoints(wB, bB, metric)
	if err != nil {
		return 0, err
	}
	mA, err := similarity.Centroid(ptsA)
	if err != nil {
		return 0, err
	}
	mB, err := similarity.Centroid(ptsB)
	if err != nil {
		return 0, err
	}
	const iters = 10000
	start := time.Now()
	var sink float64
	for i := 0; i < iters; i++ {
		l2 := 0.0
		for j := range mA {
			d := mA[j] - mB[j]
			l2 += d * d
		}
		cosT, err := similarity.CosineSimilarity(wA, wB)
		if err != nil {
			return 0, err
		}
		sink += similarity.TriangleSquared(l2, cosT, metric)
	}
	_ = sink
	return time.Since(start) / iters, nil
}

// privateMaskingCore times the protocol's n-dependent masking arithmetic
// without OT: cover-polynomial generation and masked evaluations for the
// two n-dimensional linear rounds ("one additional dimension requires more
// random polynomials", §VI-B.2). The area round is n-independent and the
// OT cost is constant in n, so this series carries the dimension scaling.
// Beside the time per evaluation it returns the field elements one
// evaluation handles: per round, M request pairs of one point and n masked
// components each, and the M masked evaluations the sender answers with.
func privateMaskingCore(dim int, opts Options) (time.Duration, int, error) {
	f := field.Default()
	wEnc, err := f.RandVec(opts.Rand, dim)
	if err != nil {
		return 0, 0, err
	}
	linEval, err := mvpoly.NewLinear(f, wEnc, f.FromInt64(1))
	if err != nil {
		return 0, 0, err
	}
	linParams := ompe.Params{Field: f, PolyDegree: 1, MaskDegree: 2, CoverFactor: 2, Group: opts.Group}

	input, err := f.RandVec(opts.Rand, dim)
	if err != nil {
		return 0, 0, err
	}

	const iters = 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		// Rounds 1 and 2: n-dimensional linear OMPE arithmetic.
		for r := 0; r < 2; r++ {
			_, req, err := ompe.NewReceiver(linParams, input, opts.Rand)
			if err != nil {
				return 0, 0, err
			}
			if _, err := ompe.MaskedEvaluations(linParams, linEval, req, opts.Rand); err != nil {
				return 0, 0, err
			}
		}
	}
	elapsed := time.Since(start)
	// Both rounds have one shape, counted from the parameters rather than
	// the request (which travels packed over 2^255−19): M pairs of
	// 1+n elements in, M masked evaluations out.
	m := linParams.TotalPairs()
	return elapsed / iters, 2 * (m*(1+dim) + m), nil
}

// randomHyperplane samples a random unit normal and a small offset whose
// boundary crosses the data box.
func randomHyperplane(rng *rand.Rand, dim int) ([]float64, float64) {
	w := make([]float64, dim)
	norm := 0.0
	for i := range w {
		w[i] = rng.NormFloat64()
		norm += w[i] * w[i]
	}
	norm = math.Sqrt(norm)
	for i := range w {
		w[i] /= norm
	}
	return w, 0.2 * (rng.Float64()*2 - 1)
}
