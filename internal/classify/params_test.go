package classify_test

import (
	"crypto/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/ot"
	"repro/internal/svm"
)

func TestParamsValidate(t *testing.T) {
	good := classify.Params{}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []classify.Params{
		{Mode: classify.Mode(9)},
		{MaskDegree: -1},
		{CoverFactor: 1},
		{TaylorTerms: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	model, _ := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := trainer.Spec()
	// A client reconstructing the codec from the public spec must agree
	// with the trainer's field and precision.
	codec, err := spec.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.Field().Bits() != spec.FieldBits || codec.FracBits() != spec.FracBits {
		t.Fatalf("codec round-trip mismatch: %d/%d vs %d/%d",
			codec.Field().Bits(), codec.FracBits(), spec.FieldBits, spec.FracBits)
	}
	params, err := spec.OMPEParams()
	if err != nil {
		t.Fatal(err)
	}
	if params.PolyDegree != 1 || params.MaskDegree != spec.MaskDegree {
		t.Fatalf("OMPE params: %+v", params)
	}
	if _, err := classify.NewClient(spec); err != nil {
		t.Fatal(err)
	}
	// Corrupted spec: no built-in field with that exact width.
	spec.FieldBits = 300
	if _, err := classify.NewClient(spec); err == nil {
		t.Fatal("bad field bits should fail")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	if _, err := classify.NewTrainer(nil, fastParams()); err == nil {
		t.Fatal("nil model should fail")
	}
	model := &svm.Model{Kernel: svm.Linear(), Dim: 2}
	if _, err := classify.NewTrainer(model, fastParams()); err == nil {
		t.Fatal("invalid model should fail")
	}
}

func TestExpandedModeArityGuard(t *testing.T) {
	// madelon-sized expansion (500 dims, p=3) must be rejected, not
	// attempted: C(502,499) ≈ 2·10⁷ variates.
	spec := classify.Spec{
		Kernel:        svm.PaperPolynomial(500),
		Dim:           500,
		Mode:          classify.ModeExpanded,
		MaskDegree:    2,
		CoverFactor:   2,
		AmplifierBits: 64,
		TaylorTerms:   3,
		FieldBits:     255,
		FracBits:      40,
		GroupName:     "512",
	}
	if _, err := classify.NewClient(spec); err == nil {
		t.Fatal("oversized expansion should fail")
	}
}

func TestClassifyBatch(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	labels, err := classify.ClassifyBatch(trainer, test.X[:5], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 5 {
		t.Fatalf("%d labels", len(labels))
	}
	for i, l := range labels {
		if l != 1 && l != -1 {
			t.Fatalf("label %d = %d", i, l)
		}
	}
}

func TestClientRejectsWrongDim(t *testing.T) {
	model, _ := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	client, err := classify.NewClient(trainer.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.NewSession([]float64{1, 2}, rand.Reader); err == nil {
		t.Fatal("wrong sample dim should fail")
	}
}

func TestGroupSelectionSurfacesInSpec(t *testing.T) {
	model, _ := trainSmall(t, svm.Linear(), 1)
	params := fastParams()
	params.Group = ot.Group1024()
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		t.Fatal(err)
	}
	if trainer.Spec().GroupName != "modp1024" {
		t.Fatalf("group name %q", trainer.Spec().GroupName)
	}
}
