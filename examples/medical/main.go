// Medical scenario (paper §I: "hospitals can build disease classification
// models to diagnose or prognosticate new diseases"): a hospital trains a
// nonlinear diagnosis model on its health records; a patient's device
// requests a private diagnosis. The hospital's model (trained on protected
// records) and the patient's measurements both stay private.
//
// The diagnosis boundary is nonlinear, so this example exercises the
// paper's §IV-B path: a polynomial-kernel SVM evaluated obliviously with
// degree-p·q masking.
//
//	go run ./examples/medical
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand/v2"

	ppdc "repro"
)

// Patient features (scaled to [-1,1]): age, BMI, blood pressure, glucose,
// cholesterol.
const nFeatures = 5

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The hospital's records: disease risk follows a nonlinear rule (an
	// interaction of glucose, BMI and age — representable by a cubic
	// kernel, invisible to a linear one).
	records, labels := simulateRecords(600, 42)
	kernel := ppdc.PaperPolynomialKernel(nFeatures) // (x·y/n)³, the paper's default
	model, err := ppdc.Train(records, labels, ppdc.TrainConfig{Kernel: kernel, C: 200})
	if err != nil {
		return err
	}
	acc, err := model.Accuracy(records, labels)
	if err != nil {
		return err
	}
	fmt.Printf("hospital trained nonlinear diagnosis model: %d support vectors, %.1f%% training accuracy\n",
		model.NumSupportVectors(), acc*100)

	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{
		Mode: ppdc.ModeDirect, // the paper's kernel-form oblivious evaluation
	})
	if err != nil {
		return err
	}
	// One client is reused across patients (it only depends on the public
	// protocol spec).
	client, err := ppdc.NewClient(trainer.Spec())
	if err != nil {
		return err
	}

	patients := map[string][]float64{
		"patient with high glucose + BMI": {0.3, 0.8, 0.4, 0.9, 0.2},
		"young healthy patient":           {-0.8, -0.3, -0.2, -0.5, -0.1},
		"borderline metabolic profile":    {0.1, 0.3, 0.1, 0.3, 0.4},
	}
	for name, features := range patients {
		label, err := ppdc.ClassifyWith(trainer, client, features, rand.Reader)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		diagnosis := "low risk"
		if label > 0 {
			diagnosis = "HIGH RISK — recommend follow-up"
		}
		// Verify protocol fidelity against the plaintext model (possible
		// only because this demo owns both sides).
		plain, err := model.Classify(features)
		if err != nil {
			return err
		}
		fmt.Printf("  %-32s → %s (matches plaintext model: %v)\n", name, diagnosis, plain == label)
	}
	fmt.Println("the hospital never saw the measurements; the patients never saw the model")
	return nil
}

// simulateRecords stands in for protected health records.
func simulateRecords(n int, seed uint64) ([][]float64, []int) {
	rng := mrand.New(mrand.NewPCG(seed, 0x3d))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		p := make([]float64, nFeatures)
		for j := range p {
			p[j] = rng.Float64()*2 - 1
		}
		x[i] = p
		// Nonlinear risk: glucose×BMI×age interaction plus a cubic
		// cholesterol effect.
		risk := 6*p[0]*p[1]*p[3] + p[4]*p[4]*p[4] + 0.3*p[2]
		y[i] = 1
		if risk < 0 {
			y[i] = -1
		}
	}
	return x, y
}
