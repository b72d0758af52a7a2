// Package ppdc (privacy-preserving data classification) is the public API
// of this reproduction of "Privacy-preserving Data Classification and
// Similarity Evaluation for Distributed Systems" (Jia, Guo, Jin, Fang —
// ICDCS 2016).
//
// It exposes three capabilities:
//
//   - SVM training (a LIBSVM-equivalent SMO trainer with linear,
//     polynomial, RBF and sigmoid kernels) — the substrate the paper
//     builds on.
//   - Privacy-preserving classification: a trainer serves classification
//     queries without revealing its model; clients submit samples without
//     revealing them (paper §IV).
//   - Privacy-preserving similarity evaluation: two trainers compare
//     models through the isosceles-triangle metric without revealing them
//     (paper §V).
//
// Both protocols run in-process (Classify, EvaluateSimilarityPrivate) or
// across machines (Server / DialClassify / DialSimilarity). See README.md
// for a walkthrough and DESIGN.md for the architecture.
package ppdc

import (
	"io"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/ot"
	"repro/internal/svm"
)

// Model is a trained binary SVM: d(t) = Σ_s α_s·y_s·K(x_s, t) + b.
type Model = svm.Model

// Kernel selects and parameterizes a kernel function.
type Kernel = svm.Kernel

// TrainConfig holds SMO training hyperparameters.
type TrainConfig = svm.Config

// Scaler maps features into [-1, 1], the preprocessing the paper applies.
type Scaler = svm.Scaler

// Kernel constructors.
var (
	// LinearKernel is K(x,y) = x·y.
	LinearKernel = svm.Linear
	// PolynomialKernel is K(x,y) = (a0·x·y + b0)^degree.
	PolynomialKernel = svm.Polynomial
	// PaperPolynomialKernel is the paper's nonlinear default for an
	// n-dimensional dataset: a0 = 1/n, b0 = 0, p = 3.
	PaperPolynomialKernel = svm.PaperPolynomial
	// RBFKernel is K(x,y) = exp(−γ‖x−y‖²).
	RBFKernel = svm.RBF
	// SigmoidKernel is K(x,y) = tanh(a0·x·y + c0).
	SigmoidKernel = svm.Sigmoid
)

// Train fits a binary soft-margin SVM on samples x with labels y ∈ {+1,−1}.
func Train(x [][]float64, y []int, cfg TrainConfig) (*Model, error) {
	return svm.Train(x, y, cfg)
}

// FitScaler learns per-feature [-1,1] scaling from training data.
func FitScaler(x [][]float64) (*Scaler, error) { return svm.FitScaler(x) }

// ClassifyParams configures the privacy-preserving classification
// protocol. The zero value selects the paper's defaults: direct kernel
// evaluation, masking degree q=2, cover factor k=2, 64-bit amplifiers,
// and the 2048-bit MODP OT group.
type ClassifyParams = classify.Params

// Nonlinear evaluation forms.
const (
	// ModeDirect evaluates the kernel-form decision function obliviously
	// (the paper's §IV-B construction, masking degree p·q).
	ModeDirect = classify.ModeDirect
	// ModeExpanded linearizes a polynomial-kernel model over its τ
	// monomial variates and runs the linear protocol.
	ModeExpanded = classify.ModeExpanded
)

// Trainer is a model owner's protocol endpoint: it serves classification
// queries without revealing the model.
type Trainer = classify.Trainer

// Client is a sample owner's protocol endpoint: it submits queries without
// revealing the sample, learning only the predicted label.
type Client = classify.Client

// ClassifySpec is the public protocol contract a trainer publishes.
type ClassifySpec = classify.Spec

// NewTrainer wraps a trained model for privacy-preserving serving.
func NewTrainer(model *Model, params ClassifyParams) (*Trainer, error) {
	return classify.NewTrainer(model, params)
}

// NewClient derives a protocol client from a trainer's published spec.
func NewClient(spec ClassifySpec) (*Client, error) {
	return classify.NewClient(spec)
}

// Classify runs one complete in-process privacy-preserving classification
// and returns the ±1 label. Use rng = crypto/rand.Reader in production.
func Classify(t *Trainer, sample []float64, rng io.Reader) (int, error) {
	return classify.Classify(t, sample, rng)
}

// ClassifyWith reuses a client across many samples.
func ClassifyWith(t *Trainer, c *Client, sample []float64, rng io.Reader) (int, error) {
	return classify.ClassifyWith(t, c, sample, rng)
}

// ClassifyBatch classifies a set of samples, one protocol session each.
func ClassifyBatch(t *Trainer, samples [][]float64, rng io.Reader) ([]int, error) {
	return classify.ClassifyBatch(t, samples, rng)
}

// OT groups for protocol configuration.
var (
	// OTGroup512Test is a toy 512-bit group for tests and benchmarks.
	OTGroup512Test = ot.Group512Test
	// OTGroup1024 is the RFC 2409 Oakley Group 2 (legacy security).
	OTGroup1024 = ot.Group1024
	// OTGroup1536 is the RFC 3526 group 5.
	OTGroup1536 = ot.Group1536
	// OTGroup2048 is the RFC 3526 group 14 (recommended).
	OTGroup2048 = ot.Group2048
)

// Dataset is a labeled ±1 sample set.
type Dataset = dataset.Dataset

// DatasetSpec describes a synthetic stand-in for one of the paper's
// LIBSVM datasets.
type DatasetSpec = dataset.Spec

// DatasetOptions tunes synthetic generation.
type DatasetOptions = dataset.Options

// DatasetCatalog returns specs for the paper's Table I datasets.
func DatasetCatalog() []DatasetSpec { return dataset.Catalog() }

// GenerateDataset produces the train/test splits of a synthetic dataset.
func GenerateDataset(spec DatasetSpec, opts DatasetOptions) (train, test *Dataset, err error) {
	return dataset.Generate(spec, opts)
}

// LoadLIBSVM parses the sparse LIBSVM text format, so the paper's real
// datasets can be dropped in when available.
func LoadLIBSVM(r io.Reader, name string, dim int) (*Dataset, error) {
	return dataset.ParseLIBSVM(r, name, dim)
}

// MulticlassModel is a one-vs-one SVM ensemble over arbitrary integer
// labels — an extension beyond the paper's binary protocols, matching the
// multi-class scope of its closest related work [15].
type MulticlassModel = svm.MulticlassModel

// MulticlassTrainer serves a one-vs-one ensemble privately: one binary
// protocol per class pair, with the client voting locally.
type MulticlassTrainer = classify.MulticlassTrainer

// TrainMulticlass fits a one-vs-one ensemble on integer-labeled data.
func TrainMulticlass(x [][]float64, y []int, cfg TrainConfig) (*MulticlassModel, error) {
	return svm.TrainMulticlass(x, y, cfg)
}

// NewMulticlassTrainer wraps a trained ensemble for private serving.
func NewMulticlassTrainer(m *MulticlassModel, params ClassifyParams) (*MulticlassTrainer, error) {
	return classify.NewMulticlassTrainer(m, params)
}

// ClassifyMulticlass privately classifies a sample against a one-vs-one
// ensemble, returning the majority-vote class label.
func ClassifyMulticlass(mt *MulticlassTrainer, sample []float64, rng io.Reader) (int, error) {
	return classify.ClassifyMulticlass(mt, sample, rng)
}

// SaveModel serializes a model as JSON (stable format; see
// internal/svm/serialize.go).
func SaveModel(w io.Writer, m *Model) error { return svm.WriteModel(w, m) }

// LoadModel parses and validates a JSON-serialized model.
func LoadModel(r io.Reader) (*Model, error) { return svm.ReadModel(r) }

// SaveMulticlassModel serializes a one-vs-one ensemble as JSON.
func SaveMulticlassModel(w io.Writer, m *MulticlassModel) error {
	return svm.WriteMulticlassModel(w, m)
}

// LoadMulticlassModel parses and validates a JSON-serialized ensemble.
func LoadMulticlassModel(r io.Reader) (*MulticlassModel, error) {
	return svm.ReadMulticlassModel(r)
}

// FastTrainer and FastClient are an IKNP fast session's two endpoints:
// one oblivious-transfer base phase per session, then every
// classification query runs on field arithmetic and symmetric crypto
// alone (no public-key operations on the query path, two messages per
// batch; a single classification is a batch of one). Privacy guarantees
// match the one-shot path.
type (
	FastTrainer = classify.FastTrainer
	FastClient  = classify.FastClient
)

// NewFastPair runs the session base phase in memory and returns paired
// endpoints (single-process use; over the network use DialClassify).
func NewFastPair(t *Trainer, rng io.Reader) (*FastTrainer, *FastClient, error) {
	return classify.NewFastPair(t, rng)
}

// ClassifyFast runs one fast-path classification in memory, as a batch of
// one.
func ClassifyFast(ft *FastTrainer, fc *FastClient, sample []float64, rng io.Reader) (int, error) {
	labels, err := classify.ClassifyFastBatch(ft, fc, [][]float64{sample}, rng)
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}
