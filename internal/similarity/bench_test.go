package similarity_test

import (
	"crypto/rand"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// BenchmarkLinearSimilarity times one in-process hyperplane evaluation
// (§V-B) at n = 8 on the default parameters, over x25519 at GOMAXPROCS:
// both set-ups (unit normals, boundary centroids, the 2^255−19 codec) and
// the three OMPE rounds, each with one Naor–Pinkas k-of-n.
func BenchmarkLinearSimilarity(b *testing.B) {
	rng := mrand.New(mrand.NewPCG(8, 1))
	plane := func() ([]float64, float64) {
		w := make([]float64, 8)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		return w, 0.1 * rng.NormFloat64()
	}
	wA, bA := plane()
	wB, bB := plane()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.EvaluatePrivate(wA, bA, wB, bB, similarity.Params{}, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSimilarity times one in-process kernelized evaluation
// (§V-C) between two cubic models trained on the full synthetic diabetes
// set (seeds 31 and 32), over x25519 at GOMAXPROCS (-cpu 1 for the serial
// figure). Alice answers one
// centroid round and |S_B| normal rounds, each evaluating her polynomial
// Σ_s αyA_s·(a0·xA_s·z + b0)^p at every request point.
func BenchmarkKernelSimilarity(b *testing.B) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		b.Fatal(err)
	}
	var models [2]*svm.Model
	for i, seed := range []uint64{31, 32} {
		train, _, err := dataset.Generate(spec, dataset.Options{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if models[i], err = svm.Train(train.X, train.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC}); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("|S_A| = %d, |S_B| = %d", len(models[0].SupportVectors), len(models[1].SupportVectors))
	var params similarity.Params
	for i := 0; i < b.N; i++ {
		if _, err := similarity.EvaluatePrivateKernel(models[0], models[1], params, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
