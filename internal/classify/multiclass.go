package classify

import (
	"fmt"
	"io"

	"repro/internal/svm"
)

// Privacy-preserving multiclass classification (extension beyond the
// paper's binary protocols; see internal/svm/multiclass.go). The trainer
// serves one binary protocol endpoint per one-vs-one pair; the client runs
// all K(K-1)/2 binary classifications and tallies the majority vote
// locally. The trainer learns nothing about the sample (as before) and
// never sees the vote tally; the client learns the pairwise labels it
// would have learned from K-1 adaptive binary queries anyway, plus the
// final class.

// MulticlassTrainer serves a one-vs-one ensemble privately.
type MulticlassTrainer struct {
	classes  []int
	pairPos  []int
	pairNeg  []int
	trainers []*Trainer
}

// NewMulticlassTrainer wraps a trained ensemble.
func NewMulticlassTrainer(m *svm.MulticlassModel, params Params) (*MulticlassTrainer, error) {
	if m == nil {
		return nil, fmt.Errorf("classify: nil multiclass model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	mt := &MulticlassTrainer{classes: append([]int(nil), m.Classes...)}
	for _, p := range m.Pairs {
		trainer, err := NewTrainer(p.Model, params)
		if err != nil {
			return nil, fmt.Errorf("classify: pair (%d,%d): %w", p.ClassPos, p.ClassNeg, err)
		}
		mt.pairPos = append(mt.pairPos, p.ClassPos)
		mt.pairNeg = append(mt.pairNeg, p.ClassNeg)
		mt.trainers = append(mt.trainers, trainer)
	}
	return mt, nil
}

// Specs returns the per-pair public contracts, in pair order.
func (mt *MulticlassTrainer) Specs() []Spec {
	out := make([]Spec, len(mt.trainers))
	for i, tr := range mt.trainers {
		out[i] = tr.Spec()
	}
	return out
}

// MulticlassClient is the sample owner's ensemble endpoint.
type MulticlassClient struct {
	classes []int
	pairPos []int
	pairNeg []int
	clients []*Client
}

// NewMulticlassClient builds per-pair clients from the trainer's specs and
// pair labels.
func NewMulticlassClient(classes, pairPos, pairNeg []int, specs []Spec) (*MulticlassClient, error) {
	if len(pairPos) != len(specs) || len(pairNeg) != len(specs) {
		return nil, fmt.Errorf("classify: %d pair labels for %d specs", len(pairPos), len(specs))
	}
	mc := &MulticlassClient{
		classes: append([]int(nil), classes...),
		pairPos: append([]int(nil), pairPos...),
		pairNeg: append([]int(nil), pairNeg...),
	}
	for i, spec := range specs {
		c, err := NewClient(spec)
		if err != nil {
			return nil, fmt.Errorf("classify: pair %d: %w", i, err)
		}
		mc.clients = append(mc.clients, c)
	}
	return mc, nil
}

// ClassifyMulticlass runs one private binary classification per pair and
// returns the majority-vote class.
func ClassifyMulticlass(mt *MulticlassTrainer, sample []float64, rng io.Reader) (int, error) {
	mc, err := NewMulticlassClient(mt.classes, mt.pairPos, mt.pairNeg, mt.Specs())
	if err != nil {
		return 0, err
	}
	return ClassifyMulticlassWith(mt, mc, sample, rng)
}

// ClassifyMulticlassWith reuses a prepared client across samples.
func ClassifyMulticlassWith(mt *MulticlassTrainer, mc *MulticlassClient, sample []float64, rng io.Reader) (int, error) {
	if len(mc.clients) != len(mt.trainers) {
		return 0, fmt.Errorf("classify: client has %d pairs, trainer %d", len(mc.clients), len(mt.trainers))
	}
	votes := make(map[int]int, len(mt.classes))
	for i, trainer := range mt.trainers {
		label, err := ClassifyWith(trainer, mc.clients[i], sample, rng)
		if err != nil {
			return 0, fmt.Errorf("classify: pair (%d,%d): %w", mc.pairPos[i], mc.pairNeg[i], err)
		}
		if label > 0 {
			votes[mc.pairPos[i]]++
		} else {
			votes[mc.pairNeg[i]]++
		}
	}
	return svm.Vote(mc.classes, votes)
}
