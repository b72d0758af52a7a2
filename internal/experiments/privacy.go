package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/svm"
)

// Fig5Row is one panel of Fig. 5: the quality of a colluding client
// pool's model estimate from k randomized classification results.
type Fig5Row struct {
	Samples       int
	AngleErrorDeg float64
	OffsetError   float64
	// UnprotectedAngleErrorDeg is the same attack against a trainer with
	// the amplifier disabled — the contrast that shows the amplifier is
	// what defeats estimation.
	UnprotectedAngleErrorDeg float64
}

// Fig5SampleCounts are the paper's collusion-pool sizes.
var Fig5SampleCounts = []int{2, 4, 10, 20, 50}

// fig5TrainingSize matches the paper's setup ("a linear two dimensional
// binary classifier ... with 1000 training samples").
const fig5TrainingSize = 1000

// Fig5 mounts the model-estimation attack: a 2-D linear model trained on
// 1000 samples, estimated by regression over k amplified classification
// values. With fresh per-query amplifiers the estimates should stay far
// from the true model for every k — the estimates "keep rambling".
func Fig5(opts Options, counts []int) ([]Fig5Row, error) {
	opts = opts.withDefaults()
	if len(counts) == 0 {
		counts = Fig5SampleCounts
	}
	trainer, w, b, err := fig5Trainer(opts, classify.Params{})
	if err != nil {
		return nil, err
	}
	unprotected, _, _, err := fig5Trainer(opts, classify.Params{InsecureUnitAmplifier: true})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, 0, len(counts))
	for _, k := range counts {
		res, err := attack.RunCollusion(trainer, w, b, k, opts.Rand, opts.sampleRNG(uint64(k)))
		if err != nil {
			return nil, fmt.Errorf("fig5 k=%d: %w", k, err)
		}
		unp, err := attack.RunCollusion(unprotected, w, b, k, opts.Rand, opts.sampleRNG(uint64(k)))
		if err != nil {
			return nil, fmt.Errorf("fig5 unprotected k=%d: %w", k, err)
		}
		rows = append(rows, Fig5Row{
			Samples:                  k,
			AngleErrorDeg:            res.AngleErrorDeg,
			OffsetError:              res.OffsetError,
			UnprotectedAngleErrorDeg: unp.AngleErrorDeg,
		})
	}
	return rows, nil
}

// Fig6Row contrasts model recovery with and without the amplifier.
type Fig6Row struct {
	// Amplified reports whether the protocol used fresh amplifiers.
	Amplified bool
	// AngleErrorDeg / OffsetError measure recovery quality from n+1 exact
	// protocol outputs.
	AngleErrorDeg float64
	OffsetError   float64
}

// Fig6 demonstrates the decision-function-retrieval attack of Fig. 6: with
// the amplifier disabled, n+1 = 3 classification values recover the 2-D
// model exactly (the algebraic form of the paper's tangent-circle
// construction); with the amplifier on, the same attack fails.
func Fig6(opts Options) ([]Fig6Row, error) {
	opts = opts.withDefaults()
	var rows []Fig6Row
	for _, amplified := range []bool{false, true} {
		params := classify.Params{InsecureUnitAmplifier: !amplified}
		trainer, w, b, err := fig5Trainer(opts, params)
		if err != nil {
			return nil, err
		}
		client, err := classify.NewClient(trainer.Spec())
		if err != nil {
			return nil, err
		}
		srng := opts.sampleRNG(99)
		samples := make([][]float64, 3)
		values := make([]float64, 3)
		for i := range samples {
			s := []float64{srng.Float64()*2 - 1, srng.Float64()*2 - 1}
			v, err := attack.ClassifyValue(trainer, client, s, opts.Rand)
			if err != nil {
				return nil, err
			}
			samples[i] = s
			values[i] = v
		}
		wEst, bEst, err := attack.RecoverExact(samples, values)
		if err != nil {
			return nil, err
		}
		angle, err := attack.AngleError(w, wEst)
		if err != nil {
			return nil, err
		}
		offset, err := attack.OffsetError(w, b, wEst, bEst)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Amplified:     amplified,
			AngleErrorDeg: angle * 180 / 3.141592653589793,
			OffsetError:   offset,
		})
	}
	return rows, nil
}

// fig5Trainer trains the 2-D linear model of the privacy experiments and
// returns its true weights.
func fig5Trainer(opts Options, params classify.Params) (*classify.Trainer, []float64, float64, error) {
	spec := dataset.Spec{
		Name:      "fig5-2d",
		Dim:       2,
		TrainSize: fig5TrainingSize,
		TestSize:  2,
		Structure: dataset.StructureLinear,
		Noise:     0.02,
		LinC:      1,
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: opts.Seed})
	if err != nil {
		return nil, nil, 0, err
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: 1})
	if err != nil {
		return nil, nil, 0, err
	}
	w, err := model.LinearWeights()
	if err != nil {
		return nil, nil, 0, err
	}
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		return nil, nil, 0, err
	}
	return trainer, w, model.Bias, nil
}
