package experiments

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/ot"
	"repro/internal/paillier"
	"repro/internal/svm"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	// Name identifies the swept knob value ("q=4", "modp2048", ...).
	Name string
	// PerQuery is the measured per-query protocol cost.
	PerQuery time.Duration
	// Pairs is the OMPE pair count M per query, set by the sweeps that
	// vary it (mask degree, cover factor).
	Pairs int
	// Note carries configuration detail (message counts, field size, ...).
	Note string
}

// ablationQueries is how many protocol queries each configuration runs.
const ablationQueries = 3

// ablationModel trains the shared linear and polynomial diabetes models.
func ablationModel(opts Options, nonlinear bool) (*svm.Model, [][]float64, error) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		return nil, nil, err
	}
	spec.TrainSize, spec.TestSize = 200, 20
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: opts.Seed})
	if err != nil {
		return nil, nil, err
	}
	kernel, c := svm.Linear(), spec.LinC
	if nonlinear {
		kernel, c = svm.PaperPolynomial(spec.Dim), spec.PolyC
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: kernel, C: c})
	if err != nil {
		return nil, nil, err
	}
	return model, test.X, nil
}

func measure(model *svm.Model, samples [][]float64, params classify.Params, opts Options) (time.Duration, *classify.Trainer, error) {
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		return 0, nil, err
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		return 0, nil, err
	}
	// One untimed query first: the first configuration of a sweep would
	// otherwise carry the process's cold-start cost.
	if _, err := classify.ClassifyWith(trainer, client, samples[0], opts.Rand); err != nil {
		return 0, nil, err
	}
	start := time.Now()
	for q := 0; q < ablationQueries; q++ {
		if _, err := classify.ClassifyWith(trainer, client, samples[q%len(samples)], opts.Rand); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start) / ablationQueries, trainer, nil
}

// AblationMaskDegree sweeps the security parameter q on the linear
// protocol.
func AblationMaskDegree(opts Options, degrees []int) ([]AblationRow, error) {
	opts = opts.withDefaults()
	if len(degrees) == 0 {
		degrees = []int{1, 2, 4, 8}
	}
	model, samples, err := ablationModel(opts, false)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, q := range degrees {
		params := classify.Params{Group: opts.Group, MaskDegree: q}
		per, trainer, err := measure(model, samples, params, opts)
		if err != nil {
			return nil, fmt.Errorf("q=%d: %w", q, err)
		}
		op, err := trainer.Spec().OMPEParams()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:     fmt.Sprintf("q=%d", q),
			PerQuery: per,
			Pairs:    op.TotalPairs(),
			Note:     fmt.Sprintf("m=%d genuine of M=%d pairs", op.GenuineCount(), op.TotalPairs()),
		})
	}
	return rows, nil
}

// AblationCoverFactor sweeps the decoy multiplier k.
func AblationCoverFactor(opts Options, factors []int) ([]AblationRow, error) {
	opts = opts.withDefaults()
	if len(factors) == 0 {
		factors = []int{2, 3, 5}
	}
	model, samples, err := ablationModel(opts, false)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, k := range factors {
		params := classify.Params{Group: opts.Group, CoverFactor: k}
		per, trainer, err := measure(model, samples, params, opts)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		op, err := trainer.Spec().OMPEParams()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:     fmt.Sprintf("k=%d", k),
			PerQuery: per,
			Pairs:    op.TotalPairs(),
			Note:     fmt.Sprintf("M=%d pairs", op.TotalPairs()),
		})
	}
	return rows, nil
}

// AblationOTGroup sweeps the oblivious-transfer group size.
func AblationOTGroup(opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	model, samples, err := ablationModel(opts, false)
	if err != nil {
		return nil, err
	}
	groups := []ot.Group{ot.Group512Test(), ot.Group1024(), ot.Group1536(), ot.Group2048()}
	var rows []AblationRow
	for _, g := range groups {
		params := classify.Params{Group: g}
		per, _, err := measure(model, samples, params, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name(), err)
		}
		rows = append(rows, AblationRow{
			Name:     g.Name(),
			PerQuery: per,
			Note:     fmt.Sprintf("%d-bit modulus", g.Bits()),
		})
	}
	return rows, nil
}

// AblationModes compares the paper's direct kernel-form evaluation against
// the expanded-τ linear form on the polynomial model.
func AblationModes(opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	model, samples, err := ablationModel(opts, true)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, mode := range []classify.Mode{classify.ModeDirect, classify.ModeExpanded} {
		name := "direct (degree p·q masking)"
		if mode == classify.ModeExpanded {
			name = "expanded (τ variates, degree q)"
		}
		params := classify.Params{Group: opts.Group, Mode: mode}
		per, trainer, err := measure(model, samples, params, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		op, err := trainer.Spec().OMPEParams()
		if err != nil {
			return nil, err
		}
		client, err := classify.NewClient(trainer.Spec())
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:     name,
			PerQuery: per,
			Note:     fmt.Sprintf("%d protocol variates, m=%d, field %d bits", client.NumVars(), op.GenuineCount(), trainer.Spec().FieldBits),
		})
	}
	return rows, nil
}

// AblationPaillier prices the Rahulamathavan-style homomorphic baseline
// [15] against the OMPE protocol per query.
func AblationPaillier(opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	model, samples, err := ablationModel(opts, false)
	if err != nil {
		return nil, err
	}
	perOMPE, _, err := measure(model, samples, classify.Params{Group: opts.Group}, opts)
	if err != nil {
		return nil, err
	}
	w, err := model.LinearWeights()
	if err != nil {
		return nil, err
	}
	client, err := paillier.NewBaselineClient(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	trainer, err := paillier.NewBaselineTrainer(client.PublicKey(), w, model.Bias)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for q := 0; q < ablationQueries; q++ {
		enc, err := client.EncryptSample(samples[q%len(samples)], rand.Reader)
		if err != nil {
			return nil, err
		}
		ct, err := trainer.Classify(enc, rand.Reader)
		if err != nil {
			return nil, err
		}
		if _, err := client.DecryptLabel(ct); err != nil {
			return nil, err
		}
	}
	perPaillier := time.Since(start) / ablationQueries

	return []AblationRow{
		{Name: "OMPE protocol", PerQuery: perOMPE, Note: fmt.Sprintf("OT group %s", opts.Group.Name())},
		{Name: "Paillier baseline [15]", PerQuery: perPaillier, Note: "1024-bit modulus, linear model"},
	}, nil
}

// AblationFastPath prices the IKNP fast session against the one-shot
// protocol: the fast path's per-query cost is independent of the OT group
// because public-key operations happen only in the base phase.
func AblationFastPath(opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	model, samples, err := ablationModel(opts, false)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, g := range []ot.Group{ot.Group512Test(), ot.Group2048()} {
		params := classify.Params{Group: g}
		perOneShot, trainer, err := measure(model, samples, params, opts)
		if err != nil {
			return nil, fmt.Errorf("one-shot %s: %w", g.Name(), err)
		}
		baseStart := time.Now()
		ft, fc, err := classify.NewFastPair(trainer, opts.Rand)
		if err != nil {
			return nil, fmt.Errorf("fast base %s: %w", g.Name(), err)
		}
		base := time.Since(baseStart)
		fastStart := time.Now()
		for q := 0; q < ablationQueries; q++ {
			if _, err := classify.ClassifyFastBatch(ft, fc, [][]float64{samples[q%len(samples)]}, opts.Rand); err != nil {
				return nil, fmt.Errorf("fast query %s: %w", g.Name(), err)
			}
		}
		perFast := time.Since(fastStart) / ablationQueries
		rows = append(rows,
			AblationRow{Name: fmt.Sprintf("one-shot / %s", g.Name()), PerQuery: perOneShot, Note: "public-key OT per query"},
			AblationRow{Name: fmt.Sprintf("fast     / %s", g.Name()), PerQuery: perFast, Note: fmt.Sprintf("base phase %v amortized", base.Round(time.Millisecond))},
		)
	}
	return rows, nil
}
