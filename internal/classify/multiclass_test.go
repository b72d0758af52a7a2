package classify_test

import (
	"crypto/rand"
	"math"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/classify"
	"repro/internal/svm"
)

// threeBlobs builds a 3-class 2-D problem: one angular sector per class.
func threeBlobs(n int, seed uint64) ([][]float64, []int) {
	rng := mrand.New(mrand.NewPCG(seed, 99))
	var x [][]float64
	var y []int
	centers := [][2]float64{{0.7, 0.0}, {-0.4, 0.6}, {-0.4, -0.6}}
	for len(x) < n {
		c := rng.IntN(3)
		p := []float64{
			centers[c][0] + 0.25*rng.NormFloat64(),
			centers[c][1] + 0.25*rng.NormFloat64(),
		}
		if math.Abs(p[0]) > 1 || math.Abs(p[1]) > 1 {
			continue
		}
		x = append(x, p)
		y = append(y, c+10) // arbitrary non-contiguous labels
	}
	return x, y
}

func TestMulticlassTraining(t *testing.T) {
	x, y := threeBlobs(300, 1)
	model, err := svm.TrainMulticlass(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Classes) != 3 || len(model.Pairs) != 3 {
		t.Fatalf("classes %v, %d pairs", model.Classes, len(model.Pairs))
	}
	acc, err := model.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("training accuracy %.3f on well-separated blobs", acc)
	}
}

func TestMulticlassValidation(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}}
	if _, err := svm.TrainMulticlass(x, []int{5, 5}, svm.Config{}); err == nil {
		t.Fatal("single class should fail")
	}
	if _, err := svm.TrainMulticlass(x, []int{5}, svm.Config{}); err == nil {
		t.Fatal("label count mismatch should fail")
	}
	bad := &svm.MulticlassModel{Classes: []int{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing pair models should fail")
	}
}

// TestPrivateMulticlassMatchesPlaintext: the ensemble of private binary
// protocols must vote exactly like the plaintext ensemble.
func TestPrivateMulticlassMatchesPlaintext(t *testing.T) {
	x, y := threeBlobs(240, 2)
	model, err := svm.TrainMulticlass(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := classify.NewMulticlassTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewMulticlassClient(model.Classes,
		pairPos(model), pairNeg(model), trainer.Specs())
	if err != nil {
		t.Fatal(err)
	}
	testX, _ := threeBlobs(12, 3)
	for i, sample := range testX {
		want, err := model.Classify(sample)
		if err != nil {
			t.Fatal(err)
		}
		got, err := classify.ClassifyMulticlassWith(trainer, client, sample, rand.Reader)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			// Boundary-adjacent pairwise decisions can flip within
			// fixed-point precision; verify the plaintext decision was
			// genuinely borderline before failing.
			if !nearPairBoundary(t, model, sample) {
				t.Fatalf("sample %d: private class %d, plaintext %d", i, got, want)
			}
		}
	}
}

func TestClassifyMulticlassConvenience(t *testing.T) {
	x, y := threeBlobs(150, 4)
	model, err := svm.TrainMulticlass(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := classify.NewMulticlassTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	label, err := classify.ClassifyMulticlass(trainer, x[0], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range model.Classes {
		if label == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("label %d not among classes %v", label, model.Classes)
	}
}

func pairPos(m *svm.MulticlassModel) []int {
	out := make([]int, len(m.Pairs))
	for i, p := range m.Pairs {
		out[i] = p.ClassPos
	}
	return out
}

func pairNeg(m *svm.MulticlassModel) []int {
	out := make([]int, len(m.Pairs))
	for i, p := range m.Pairs {
		out[i] = p.ClassNeg
	}
	return out
}

func nearPairBoundary(t *testing.T, m *svm.MulticlassModel, sample []float64) bool {
	t.Helper()
	for _, p := range m.Pairs {
		d, err := p.Model.Decision(sample)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d) < 1e-6 {
			return true
		}
	}
	return false
}
