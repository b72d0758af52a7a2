package attack_test

import (
	"crypto/rand"
	"math"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/attack"
	"repro/internal/classify"
	"repro/internal/svm"
)

func trainLine(t *testing.T) (*svm.Model, []float64) {
	t.Helper()
	rng := mrand.New(mrand.NewPCG(2, 3))
	wTrue := []float64{0.6, -0.8}
	var x [][]float64
	var y []int
	for len(x) < 300 {
		p := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		s := wTrue[0]*p[0] + wTrue[1]*p[1] + 0.1
		if math.Abs(s) < 0.05 {
			continue
		}
		x = append(x, p)
		if s > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	model, err := svm.Train(x, y, svm.Config{Kernel: svm.Linear(), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	w, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	return model, w
}

func TestRecoverExactFromTrueValues(t *testing.T) {
	w := []float64{1.5, -2.5}
	b := 0.75
	samples := [][]float64{{0.1, 0.2}, {-0.5, 0.9}, {0.7, -0.3}}
	values := make([]float64, 3)
	for i, s := range samples {
		values[i] = w[0]*s[0] + w[1]*s[1] + b
	}
	wEst, bEst, err := attack.RecoverExact(samples, values)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wEst[0]-w[0]) > 1e-9 || math.Abs(wEst[1]-w[1]) > 1e-9 || math.Abs(bEst-b) > 1e-9 {
		t.Fatalf("recovered %v, %v", wEst, bEst)
	}
}

func TestRecoverExactValidation(t *testing.T) {
	if _, _, err := attack.RecoverExact(nil, nil); err == nil {
		t.Fatal("empty input should fail")
	}
	// Two samples for a 2-D model (need 3).
	if _, _, err := attack.RecoverExact([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err == nil {
		t.Fatal("wrong count should fail")
	}
	// Singular: three collinear duplicate samples.
	s := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	if _, _, err := attack.RecoverExact(s, []float64{1, 1, 1}); err == nil {
		t.Fatal("singular system should fail")
	}
}

func TestEstimateLinearOnCleanValues(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(5, 8))
	w := []float64{0.3, 0.9, -0.2}
	b := -0.4
	var samples [][]float64
	var values []float64
	for i := 0; i < 50; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples = append(samples, s)
		values = append(values, w[0]*s[0]+w[1]*s[1]+w[2]*s[2]+b)
	}
	wEst, bEst, err := attack.EstimateLinear(samples, values)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w {
		if math.Abs(wEst[j]-w[j]) > 1e-6 {
			t.Fatalf("w[%d] = %v, want %v", j, wEst[j], w[j])
		}
	}
	if math.Abs(bEst-b) > 1e-6 {
		t.Fatalf("b = %v, want %v", bEst, b)
	}
}

func TestAngleError(t *testing.T) {
	a := []float64{1, 0}
	cases := []struct {
		b    []float64
		want float64
	}{
		{[]float64{2, 0}, 0},
		{[]float64{-3, 0}, 0}, // sign-agnostic
		{[]float64{0, 1}, math.Pi / 2},
		{[]float64{1, 1}, math.Pi / 4},
	}
	for _, tc := range cases {
		got, err := attack.AngleError(a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("angle(%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
	if _, err := attack.AngleError(a, []float64{1}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestOffsetError(t *testing.T) {
	w := []float64{3, 4} // norm 5
	got, err := attack.OffsetError(w, 5, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("identical models offset error %v", got)
	}
	// Flipped estimate with matching plane: w→−w, b→−b is the same plane.
	neg := []float64{-3, -4}
	got, err = attack.OffsetError(w, 5, neg, -5)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-12 {
		t.Fatalf("sign-flipped same plane: offset error %v", got)
	}
}

// TestUnamplifiedProtocolLeaksModel is the Fig. 6 integration check: three
// protocol outputs with a unit amplifier recover the model almost exactly.
func TestUnamplifiedProtocolLeaksModel(t *testing.T) {
	model, w := trainLine(t)
	trainer, err := classify.NewTrainer(model, classify.Params{
		InsecureUnitAmplifier: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	samples := [][]float64{{0.2, 0.5}, {-0.4, 0.1}, {0.7, -0.6}}
	values := make([]float64, len(samples))
	for i, s := range samples {
		v, err := attack.ClassifyValue(trainer, client, s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		values[i] = v
	}
	wEst, _, err := attack.RecoverExact(samples, values)
	if err != nil {
		t.Fatal(err)
	}
	angle, err := attack.AngleError(w, wEst)
	if err != nil {
		t.Fatal(err)
	}
	if angle > 1e-4 {
		t.Fatalf("unamplified protocol should leak the direction; angle error %v rad", angle)
	}
}

// TestAmplifiedProtocolDefeatsExactRecovery: the same attack with fresh
// amplifiers must NOT recover the direction.
func TestAmplifiedProtocolDefeatsExactRecovery(t *testing.T) {
	model, w := trainLine(t)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	// Average over several attempts: a lucky draw could land close once.
	var total float64
	const attempts = 5
	rng := mrand.New(mrand.NewPCG(11, 12))
	for a := 0; a < attempts; a++ {
		samples := make([][]float64, 3)
		values := make([]float64, 3)
		for i := range samples {
			s := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			v, err := attack.ClassifyValue(trainer, client, s, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			samples[i] = s
			values[i] = v
		}
		wEst, _, err := attack.RecoverExact(samples, values)
		if err != nil {
			continue // singular garbage counts as failure for the attacker
		}
		angle, err := attack.AngleError(w, wEst)
		if err != nil {
			t.Fatal(err)
		}
		total += angle * 180 / math.Pi
	}
	if avg := total / attempts; avg < 5 {
		t.Fatalf("amplified protocol leaked direction: mean angle error %.2f°", avg)
	}
}

func TestRunCollusion(t *testing.T) {
	model, w := trainLine(t)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := attack.RunCollusion(trainer, w, model.Bias, 8, rand.Reader, mrand.New(mrand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSamples != 8 {
		t.Fatalf("samples = %d", res.NumSamples)
	}
	if res.AngleErrorDeg < 0 || res.AngleErrorDeg > 90 {
		t.Fatalf("angle error out of range: %v", res.AngleErrorDeg)
	}
	if _, err := attack.RunCollusion(trainer, w, model.Bias, 1, rand.Reader, mrand.New(mrand.NewPCG(3, 4))); err == nil {
		t.Fatal("k=1 should fail")
	}
}
