package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/kstest"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// Table2Row is one subset pair of Table II: the K-S baseline against the
// privately computed triangle metric (scaled ×10³ as the paper does).
type Table2Row struct {
	Pair string
	// KSAverage is the per-dimension scaled K-S statistic, averaged.
	KSAverage float64
	// PrivateT1000 is 10³·T from the private protocol.
	PrivateT1000 float64
	// PlainT1000 is 10³·T computed in the clear (protocol fidelity check).
	PlainT1000 float64
}

// Table2Result carries the rows plus the rank concordance between the two
// measures — the paper's actual claim ("they show the same trend of
// comparisons between the subsets").
type Table2Result struct {
	Rows []Table2Row
	// SpearmanRho is the rank correlation between KSAverage and
	// PrivateT1000 across the six pairs (1 = identical ordering).
	SpearmanRho float64
}

// table2Shifts gives each diabetes subset a different distribution shift,
// so subset pairs differ by varied amounts — the synthetic counterpart of
// the real diabetes subsets' natural heterogeneity.
var table2Shifts = []float64{1.4, 0.2, 0.85, 0.0}

// Table2 reproduces the Table II experiment: split the diabetes analog
// into 4 subsets of 192, train a linear model per subset, and for every
// pair compare the K-S average against the (private) similarity metric.
func Table2(opts Options) (*Table2Result, error) {
	opts = opts.withDefaults()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		return nil, err
	}
	// Lower label noise and a wider margin stabilize the per-subset
	// trained boundaries, so the model-similarity ordering tracks the
	// distribution shifts rather than 192-sample training noise.
	spec.Noise = 0.05
	spec.Margin = 0.15
	subsets, err := dataset.GenerateShiftedSubsets(spec, 4, 192, table2Shifts, dataset.Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	type trained struct {
		w []float64
		b float64
	}
	models := make([]trained, len(subsets))
	for i, sub := range subsets {
		model, err := svm.Train(sub.X, sub.Y, svm.Config{Kernel: svm.Linear(), C: 1})
		if err != nil {
			return nil, fmt.Errorf("table2 subset %d: %w", i+1, err)
		}
		w, err := model.LinearWeights()
		if err != nil {
			return nil, err
		}
		models[i] = trained{w: w, b: model.Bias}
	}
	params := similarity.Params{Group: opts.Group}
	metric := similarity.DefaultMetric()

	var rows []Table2Row
	for i := 0; i < len(subsets); i++ {
		for j := i + 1; j < len(subsets); j++ {
			ks, err := kstest.AverageOverDimensions(subsets[i].X, subsets[j].X)
			if err != nil {
				return nil, err
			}
			plain, err := similarity.EvaluateLinear(models[i].w, models[i].b, models[j].w, models[j].b, metric)
			if err != nil {
				return nil, err
			}
			priv, err := similarity.EvaluatePrivate(models[i].w, models[i].b, models[j].w, models[j].b, params, opts.Rand)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Pair:         fmt.Sprintf("S%d vs S%d", i+1, j+1),
				KSAverage:    ks,
				PrivateT1000: priv.T * 1000,
				PlainT1000:   plain.T * 1000,
			})
		}
	}
	return &Table2Result{Rows: rows, SpearmanRho: spearman(rows)}, nil
}

// spearman computes the rank correlation between the K-S and private-T
// columns.
func spearman(rows []Table2Row) float64 {
	n := len(rows)
	if n < 2 {
		return 1
	}
	rank := func(get func(Table2Row) float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return get(rows[idx[a]]) < get(rows[idx[b]]) })
		r := make([]float64, n)
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	ra := rank(func(r Table2Row) float64 { return r.KSAverage })
	rb := rank(func(r Table2Row) float64 { return r.PrivateT1000 })
	var d2 float64
	for i := 0; i < n; i++ {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1))
}
