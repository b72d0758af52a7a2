// E-commerce scenario (the paper's §I motivation): two companies each
// train a sale-trend model from their own records. A clothing seller
// privately tests whether a new design follows company A's trend, and the
// two companies privately evaluate their market similarity to decide
// whether to partner — all without exposing models or designs.
//
//	go run ./examples/ecommerce
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"math"
	mrand "math/rand/v2"

	ppdc "repro"
)

// Feature vector of a clothing item (all scaled to [-1, 1], as the paper
// prescribes): price point, color brightness, formality, seasonality
// (summer..winter), material weight, pattern boldness.
const nFeatures = 6

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Each company's customers follow a different hidden trend; their sale
	// records are labeled "sold well" (+1) / "sold poorly" (−1).
	companyA := trendModel{priceSensitivity: -0.7, colorTaste: 0.5, formality: 0.3, season: 0.4}
	companyB := trendModel{priceSensitivity: -0.6, colorTaste: 0.4, formality: 0.35, season: 0.45} // similar market
	companyC := trendModel{priceSensitivity: 0.6, colorTaste: -0.7, formality: -0.2, season: 0.1}  // different market

	modelA, err := trainCompany("A", companyA, 400, 1)
	if err != nil {
		return err
	}
	modelB, err := trainCompany("B", companyB, 400, 2)
	if err != nil {
		return err
	}
	modelC, err := trainCompany("C", companyC, 400, 3)
	if err != nil {
		return err
	}

	// --- Part 1: a seller privately tests a design against A's trend. ---
	trainerA, err := ppdc.NewTrainer(modelA, ppdc.ClassifyParams{})
	if err != nil {
		return err
	}
	design := []float64{-0.4, 0.6, 0.2, 0.5, -0.1, 0.3} // cheap, bright, summery
	label, err := ppdc.Classify(trainerA, design, rand.Reader)
	if err != nil {
		return err
	}
	verdict := "follows the trend — keep it"
	if label < 0 {
		verdict = "against the trend — rework it"
	}
	fmt.Printf("seller's private design test against company A: %s\n", verdict)
	fmt.Println("  (company A never saw the design; the seller never saw A's model)")

	// --- Part 2: the consortium privately evaluates market similarity.
	// Every pair runs the three-round protocol; nobody reveals a model. ---
	params := ppdc.SimilarityParams{}
	models := []*ppdc.Model{modelA, modelB, modelC}
	names := []string{"A", "B", "C"}
	matrix, err := ppdc.SimilarityMatrix(models, params, rand.Reader)
	if err != nil {
		return err
	}
	fmt.Println("pairwise market similarity (10³T, smaller = closer):")
	for i := range matrix {
		for j := i + 1; j < len(matrix); j++ {
			fmt.Printf("  %s↔%s: %.3f\n", names[i], names[j], matrix[i][j]*1000)
		}
	}
	if matrix[0][1] < matrix[0][2] {
		fmt.Println("company B is the closer market: A should explore a partnership with B")
	} else {
		fmt.Println("company C is the closer market: A should explore a partnership with C")
	}
	return nil
}

// trendModel is a company's hidden customer-preference direction.
type trendModel struct {
	priceSensitivity, colorTaste, formality, season float64
}

func (t trendModel) score(item []float64) float64 {
	return t.priceSensitivity*item[0] + t.colorTaste*item[1] +
		t.formality*item[2] + t.season*item[3] + 0.1*item[4] - 0.05*item[5]
}

// trainCompany simulates a company's sale records and trains its
// sale-trend SVM.
func trainCompany(name string, trend trendModel, records int, seed uint64) (*ppdc.Model, error) {
	rng := mrand.New(mrand.NewPCG(seed, 0xec0))
	x := make([][]float64, records)
	y := make([]int, records)
	for i := range x {
		item := make([]float64, nFeatures)
		for j := range item {
			item[j] = rng.Float64()*2 - 1
		}
		x[i] = item
		s := trend.score(item)
		if math.Abs(s) < 0.05 {
			s = 0.05 // borderline items sell unpredictably; call them hits
		}
		y[i] = 1
		if s < 0 {
			y[i] = -1
		}
		if rng.Float64() < 0.05 { // market noise
			y[i] = -y[i]
		}
	}
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		return nil, fmt.Errorf("train company %s: %w", name, err)
	}
	fmt.Printf("company %s trained its sale-trend model (%d records, %d support vectors)\n",
		name, records, model.NumSupportVectors())
	return model, nil
}
