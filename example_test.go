package ppdc_test

import (
	"crypto/rand"
	"fmt"

	ppdc "repro"
)

// ExampleClassify demonstrates one private classification: the trainer's
// model and the client's sample never meet in the clear.
func ExampleClassify() {
	x := [][]float64{{0.9, 0.4}, {0.6, 0.8}, {-0.9, -0.4}, {-0.6, -0.8}}
	y := []int{1, 1, -1, -1}
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		fmt.Println("trainer:", err)
		return
	}
	label, err := ppdc.Classify(trainer, []float64{0.5, 0.5}, rand.Reader)
	if err != nil {
		fmt.Println("classify:", err)
		return
	}
	fmt.Printf("class %+d\n", label)
	// Output: class +1
}

// ExampleEvaluateSimilarityPrivate compares two linear models without
// revealing either: identical models land on the metric's regularized
// floor.
func ExampleEvaluateSimilarityPrivate() {
	w := []float64{0.8, -0.6}
	res, err := ppdc.EvaluateSimilarityPrivate(w, 0.1, w, 0.1,
		ppdc.SimilarityParams{}, rand.Reader)
	if err != nil {
		fmt.Println("similarity:", err)
		return
	}
	// ½·L0²·sin(θ0) with the default regularizers.
	fmt.Printf("identical models: 10⁶·T = %.0f\n", res.T*1e6)
	// Output: identical models: 10⁶·T = 109
}

// ExampleTrain shows the plaintext substrate: training and classifying
// without any privacy layer.
func ExampleTrain() {
	x := [][]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	y := []int{1, -1, -1, 1} // XOR: needs a nonlinear kernel
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.PolynomialKernel(1, 1, 2), C: 10})
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	acc, err := model.Accuracy(x, y)
	if err != nil {
		fmt.Println("accuracy:", err)
		return
	}
	fmt.Printf("XOR training accuracy: %.0f%%\n", acc*100)
	// Output: XOR training accuracy: 100%
}
