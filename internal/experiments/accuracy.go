package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/svm"
)

// fig78Datasets are the eight datasets of Figs. 7 and 8.
var fig78Datasets = []string{
	"splice", "madelon", "diabetes", "german.numer",
	"australian", "cod-rna", "ionosphere", "breast-cancer",
}

// AccuracyRow is one bar pair of Fig. 7/8: the original SVM's accuracy
// against the privacy-preserving scheme's, on the same evaluation subset.
type AccuracyRow struct {
	Dataset     string
	OriginalAcc float64
	PrivateAcc  float64
	Samples     int
	// Mismatches counts samples where the private label differed from the
	// plaintext model's (expected 0 away from fixed-point boundary noise).
	Mismatches int
}

// Fig7 reproduces "Accuracy of Linear Data Classification": the private
// protocol must predict exactly as the plaintext linear SVM.
func Fig7(opts Options) ([]AccuracyRow, error) {
	return accuracyFigure(opts, false)
}

// Fig8 reproduces "Accuracy of Nonlinear Data Classification" with the
// paper's polynomial kernel.
func Fig8(opts Options) ([]AccuracyRow, error) {
	return accuracyFigure(opts, true)
}

func accuracyFigure(opts Options, nonlinear bool) ([]AccuracyRow, error) {
	opts = opts.withDefaults()
	var rows []AccuracyRow
	for _, name := range fig78Datasets {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return nil, err
		}
		row, err := accuracyRow(spec, opts, nonlinear)
		if err != nil {
			return nil, fmt.Errorf("accuracy %s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func accuracyRow(spec dataset.Spec, opts Options, nonlinear bool) (*AccuracyRow, error) {
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: opts.Seed, FullScale: opts.FullScale})
	if err != nil {
		return nil, err
	}
	kernel, c := svm.Linear(), spec.LinC
	if nonlinear {
		kernel, c = svm.PaperPolynomial(spec.Dim), spec.PolyC
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: kernel, C: c})
	if err != nil {
		return nil, err
	}
	trainer, err := classify.NewTrainer(model, classify.Params{Group: opts.Group})
	if err != nil {
		return nil, err
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		return nil, err
	}
	n := opts.subsetSize(test.Len())
	correctOrig, correctPriv, mismatches := 0, 0, 0
	for i := 0; i < n; i++ {
		orig, err := model.Classify(test.X[i])
		if err != nil {
			return nil, err
		}
		priv, err := classify.ClassifyWith(trainer, client, test.X[i], opts.Rand)
		if err != nil {
			return nil, err
		}
		if orig == test.Y[i] {
			correctOrig++
		}
		if priv == test.Y[i] {
			correctPriv++
		}
		if orig != priv {
			mismatches++
		}
	}
	return &AccuracyRow{
		Dataset:     spec.Name,
		OriginalAcc: 100 * float64(correctOrig) / float64(n),
		PrivateAcc:  100 * float64(correctPriv) / float64(n),
		Samples:     n,
		Mismatches:  mismatches,
	}, nil
}
