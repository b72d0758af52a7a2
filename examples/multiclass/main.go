// Multiclass extension: a credit bureau trains a 3-class risk model
// (low / medium / high) and serves it privately. The paper's protocols are
// binary; this example exercises the one-vs-one extension, where each
// class pair runs its own private binary protocol and the client tallies
// the majority vote locally — so the bureau never learns which pairwise
// decisions were decisive, let alone the applicant's data.
//
//	go run ./examples/multiclass
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand/v2"

	ppdc "repro"
)

// Applicant features (scaled to [-1,1]): income, debt ratio, credit
// history length, recent defaults.
const nFeatures = 4

// Risk classes.
const (
	riskLow    = 0
	riskMedium = 1
	riskHigh   = 2
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	x, y := simulateApplicants(600, 7)
	model, err := ppdc.TrainMulticlass(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel(), C: 10})
	if err != nil {
		return err
	}
	acc, err := model.Accuracy(x, y)
	if err != nil {
		return err
	}
	fmt.Printf("bureau trained %d-class risk model (%d pairwise SVMs, %.1f%% training accuracy)\n",
		len(model.Classes), len(model.Pairs), acc*100)

	trainer, err := ppdc.NewMulticlassTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		return err
	}

	applicants := map[string][]float64{
		"stable high earner":        {0.8, -0.6, 0.7, -0.9},
		"overleveraged borrower":    {-0.2, 0.9, -0.1, 0.6},
		"thin-file young applicant": {0.0, 0.1, -0.8, -0.3},
	}
	names := map[int]string{riskLow: "LOW", riskMedium: "MEDIUM", riskHigh: "HIGH"}
	for who, features := range applicants {
		class, err := ppdc.ClassifyMulticlass(trainer, features, rand.Reader)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		plain, err := model.Classify(features)
		if err != nil {
			return err
		}
		fmt.Printf("  %-26s → risk %s (matches plaintext ensemble: %v)\n",
			who, names[class], class == plain)
	}
	fmt.Println("the bureau never saw the applications; the applicants never saw the model")
	return nil
}

// simulateApplicants stands in for the bureau's historical records.
func simulateApplicants(n int, seed uint64) ([][]float64, []int) {
	rng := mrand.New(mrand.NewPCG(seed, 0xc4ed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		p := make([]float64, nFeatures)
		for j := range p {
			p[j] = rng.Float64()*2 - 1
		}
		x[i] = p
		// Risk score: debt and defaults raise it, income and history
		// lower it.
		score := 0.9*p[1] + 0.7*p[3] - 0.8*p[0] - 0.5*p[2]
		switch {
		case score < -0.5:
			y[i] = riskLow
		case score < 0.5:
			y[i] = riskMedium
		default:
			y[i] = riskHigh
		}
	}
	return x, y
}
