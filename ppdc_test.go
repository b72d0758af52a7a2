package ppdc_test

import (
	"crypto/rand"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	ppdc "repro"
)

// toyData builds a small separable problem through the public API.
func toyData() ([][]float64, []int) {
	x := [][]float64{
		{0.8, 0.6}, {0.5, 0.9}, {0.9, 0.1}, {0.3, 0.4}, {0.7, -0.1}, {0.6, 0.5},
		{-0.8, -0.6}, {-0.5, -0.9}, {-0.9, -0.1}, {-0.3, -0.4}, {-0.7, 0.1}, {-0.6, -0.5},
	}
	y := []int{1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1}
	return x, y
}

func TestPublicAPIEndToEnd(t *testing.T) {
	x, y := toyData()
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range x {
		want, err := model.Classify(sample)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ppdc.Classify(trainer, sample, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: %d vs %d", i, got, want)
		}
	}
}

func TestPublicAPIBatchAndClientReuse(t *testing.T) {
	x, y := toyData()
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ppdc.ClassifyBatch(trainer, x[:4], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 {
		t.Fatalf("%d labels", len(labels))
	}
	client, err := ppdc.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppdc.ClassifyWith(trainer, client, x[0], rand.Reader); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimilarityAPI(t *testing.T) {
	x, y := toyData()
	modelA, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		t.Fatal(err)
	}
	// A rotated variant as model B.
	xB := make([][]float64, len(x))
	for i, row := range x {
		xB[i] = []float64{row[0]*0.9 - row[1]*0.3, row[0]*0.3 + row[1]*0.9}
	}
	modelB, err := ppdc.Train(xB, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		t.Fatal(err)
	}
	metric := ppdc.DefaultSimilarityMetric()
	plain, err := ppdc.EvaluateModelSimilarity(modelA, modelB, metric)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ppdc.EvaluateModelSimilarityPrivate(modelA, modelB,
		ppdc.SimilarityParams{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.TSquared-priv.TSquared) > 1e-4*(1+plain.TSquared) {
		t.Fatalf("similarity mismatch: %g vs %g", plain.TSquared, priv.TSquared)
	}
	self, err := ppdc.EvaluateModelSimilarity(modelA, modelA, metric)
	if err != nil {
		t.Fatal(err)
	}
	if self.T >= plain.T {
		t.Fatalf("self-similarity %g should be below cross-similarity %g", self.T, plain.T)
	}
}

func TestPublicNetworkAPI(t *testing.T) {
	x, y := toyData()
	model, err := ppdc.Train(x, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		t.Fatal(err)
	}
	srv := ppdc.NewServer(trainer)
	srv.Logf = t.Logf
	w, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableSimilarity(w, model.Bias, ppdc.SimilarityParams{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	client, err := ppdc.DialClassify(ln.Addr().String(), 5*time.Second, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	label, err := client.Classify(x[0])
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Fatalf("label = %d", label)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := ppdc.DialSimilarity(ln.Addr().String(), w, model.Bias, 5*time.Second, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Same model on both sides: the regularized floor.
	floor := 0.5 * 0.05 * 0.05 * math.Sin(math.Pi/36)
	if math.Abs(res.T-floor) > 1e-3 {
		t.Fatalf("self similarity over network T=%g, want ~%g", res.T, floor)
	}
}

func TestPublicDatasetAPI(t *testing.T) {
	catalog := ppdc.DatasetCatalog()
	if len(catalog) != 17 {
		t.Fatalf("catalog has %d datasets, want the paper's 17", len(catalog))
	}
	spec := catalog[0]
	spec.TrainSize, spec.TestSize = 30, 10
	train, test, err := ppdc.GenerateDataset(spec, ppdc.DatasetOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 30 || test.Len() != 10 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	parsed, err := ppdc.LoadLIBSVM(strings.NewReader("+1 1:0.5 2:-1\n-1 2:0.25\n"), "inline", 0)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 2 || parsed.Dim() != 2 {
		t.Fatalf("parsed %dx%d", parsed.Len(), parsed.Dim())
	}
}

func TestPublicScalerAPI(t *testing.T) {
	s, err := ppdc.FitScaler([][]float64{{0, 4}, {2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Apply([]float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("scaled = %v", out)
	}
}

func TestSimilarityMatrix(t *testing.T) {
	x, y := toyData()
	var models []*ppdc.Model
	for rot := 0; rot < 3; rot++ {
		xr := make([][]float64, len(x))
		c, s := math.Cos(0.3*float64(rot)), math.Sin(0.3*float64(rot))
		for i, row := range x {
			xr[i] = []float64{c*row[0] - s*row[1], s*row[0] + c*row[1]}
		}
		m, err := ppdc.Train(xr, y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel()})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	mat, err := ppdc.SimilarityMatrix(models, ppdc.SimilarityParams{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat) != 3 {
		t.Fatalf("matrix size %d", len(mat))
	}
	for i := range mat {
		for j := range mat {
			if mat[i][j] != mat[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Farther rotation = bigger metric.
	if !(mat[0][1] < mat[0][2]) {
		t.Fatalf("similarity ordering wrong: T(0,1)=%g, T(0,2)=%g", mat[0][1], mat[0][2])
	}
	// Diagonal at the regularized floor, below any off-diagonal entry.
	if mat[0][0] >= mat[0][1] {
		t.Fatalf("diagonal %g not below off-diagonal %g", mat[0][0], mat[0][1])
	}
}
