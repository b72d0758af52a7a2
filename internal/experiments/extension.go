package experiments

import (
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/svm"
)

// Fig8x is an extension experiment beyond the paper: private
// classification accuracy parity for the RBF and sigmoid kernels, which
// §IV-B describes (via Taylor truncation) but §VI never evaluates. The
// reference for parity is the Taylor-truncated model — the function the
// protocol actually evaluates — with the truncation error reported
// separately against the exact kernel.
type Fig8xRow struct {
	Dataset string
	Kernel  string
	// TruncatedAcc is the Taylor-truncated plaintext model's accuracy.
	TruncatedAcc float64
	// PrivateAcc is the private protocol's accuracy on the same samples.
	PrivateAcc float64
	// ExactAcc is the untruncated kernel model's accuracy (isolates the
	// Taylor error from the protocol error).
	ExactAcc float64
	// Samples evaluated; Mismatches counts private-vs-truncated label
	// disagreements (expected 0).
	Samples    int
	Mismatches int
}

// Fig8x runs the RBF and sigmoid parity experiment on two small datasets.
func Fig8x(opts Options) ([]Fig8xRow, error) {
	opts = opts.withDefaults()
	var rows []Fig8xRow
	for _, name := range []string{"ionosphere", "australian"} {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return nil, err
		}
		spec.TrainSize = 150
		spec.TestSize = 40
		train, test, err := dataset.Generate(spec, dataset.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		kernels := []struct {
			label string
			k     svm.Kernel
		}{
			// Taylor truncation converges only for γ·d² ≲ 1, so γ scales
			// inversely with the squared-distance range ~2n/3.
			{"rbf", svm.RBF(1 / float64(2*spec.Dim))},
			{"sigmoid", svm.Sigmoid(1/float64(spec.Dim), 0)},
		}
		for _, kc := range kernels {
			row, err := fig8xRow(name, kc.label, kc.k, train, test, opts)
			if err != nil {
				return nil, fmt.Errorf("fig8x %s/%s: %w", name, kc.label, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func fig8xRow(name, label string, k svm.Kernel, train, test *dataset.Dataset, opts Options) (*Fig8xRow, error) {
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: k, C: 50})
	if err != nil {
		return nil, err
	}
	params := classify.Params{TaylorTerms: 4}
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		return nil, err
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		return nil, err
	}
	n := test.Len()
	if opts.Quick && n > 10 {
		n = 10
	}
	correctTrunc, correctPriv, correctExact, mismatches := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		sample := test.X[i]
		exact, err := model.Classify(sample)
		if err != nil {
			return nil, err
		}
		trunc, err := truncatedLabel(model, sample, params.TaylorTerms)
		if err != nil {
			return nil, err
		}
		priv, err := classify.ClassifyWith(trainer, client, sample, opts.Rand)
		if err != nil {
			return nil, err
		}
		if exact == test.Y[i] {
			correctExact++
		}
		if trunc == test.Y[i] {
			correctTrunc++
		}
		if priv == test.Y[i] {
			correctPriv++
		}
		if priv != trunc {
			mismatches++
		}
	}
	return &Fig8xRow{
		Dataset:      name,
		Kernel:       label,
		TruncatedAcc: 100 * float64(correctTrunc) / float64(n),
		PrivateAcc:   100 * float64(correctPriv) / float64(n),
		ExactAcc:     100 * float64(correctExact) / float64(n),
		Samples:      n,
		Mismatches:   mismatches,
	}, nil
}

// truncatedLabel evaluates the Taylor-truncated decision function — the
// exact function the protocol computes.
func truncatedLabel(m *svm.Model, sample []float64, terms int) (int, error) {
	acc := m.Bias
	for s, sv := range m.SupportVectors {
		var kv float64
		var err error
		switch m.Kernel.Kind {
		case svm.KernelRBF:
			d2 := 0.0
			for j := range sv {
				diff := sv[j] - sample[j]
				d2 += diff * diff
			}
			kv, err = kernel.RBFApprox(m.Kernel.Gamma, d2, terms)
		case svm.KernelSigmoid:
			u := m.Kernel.C0
			for j := range sv {
				u += m.Kernel.A0 * sv[j] * sample[j]
			}
			kv, err = kernel.TanhApprox(u, terms)
		default:
			return 0, fmt.Errorf("experiments: unexpected kernel %v", m.Kernel.Kind)
		}
		if err != nil {
			return 0, err
		}
		acc += m.AlphaY[s] * kv
	}
	if math.Signbit(acc) {
		return -1, nil
	}
	return 1, nil
}
