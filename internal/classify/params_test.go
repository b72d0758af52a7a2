package classify_test

import (
	"crypto/rand"
	"errors"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/ompe"
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
		GroupName:     "x25519",
	}
	if _, err := classify.NewClient(spec); err == nil || !strings.Contains(err.Error(), "expansion too large") {
		t.Fatalf("oversized expansion: err = %v, want the arity guard's refusal", err)
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

// TestGroupSelectionSurfacesInSpec: the spec names the one OT group,
// x25519, which is what a client resolves it to.
func TestGroupSelectionSurfacesInSpec(t *testing.T) {
	model, _ := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := trainer.Spec().GroupName; got != ot.X25519().Name() {
		t.Fatalf("group name %q, want %q", got, ot.X25519().Name())
	}
}

// TestHostileSpecRefused: a client handed a spec whose OMPE shape
// overflows int, M = (q+1)·k pairs with q or k at 2^62, must refuse it
// with ompe.ErrParams on both the fast and the one-shot path, before
// allocating anything sized by it. A spec naming any OT group but x25519
// must be refused with ot.ErrUnknownGroup by the constructor itself,
// before any message.
func TestHostileSpecRefused(t *testing.T) {
	model, test := trainSmall(t, svm.Linear(), 1)
	trainer, err := classify.NewTrainer(model, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*classify.Spec)
		want   error
		// lazy rows may pass the constructor and fail at the first message.
		lazy bool
	}{
		{"mask-degree-2^62", func(s *classify.Spec) { s.MaskDegree = 1 << 62 }, ompe.ErrParams, true},
		{"cover-factor-2^62", func(s *classify.Spec) { s.CoverFactor = 1 << 62 }, ompe.ErrParams, true},
		{"group-modp512-test", func(s *classify.Spec) { s.GroupName = "modp512-test" }, ot.ErrUnknownGroup, false},
		{"group-modp2048", func(s *classify.Spec) { s.GroupName = "modp2048" }, ot.ErrUnknownGroup, false},
		{"group-empty", func(s *classify.Spec) { s.GroupName = "" }, ot.ErrUnknownGroup, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := trainer.Spec()
			tc.mutate(&spec)
			fc, _, err := classify.NewFastClient(spec, rand.Reader)
			if err == nil && tc.lazy {
				_, _, err = fc.NewBatch(test.X[:1], rand.Reader)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("NewFastClient: err = %v, want %v", err, tc.want)
			}
			c, err := classify.NewClient(spec)
			if err == nil && tc.lazy {
				_, _, err = c.NewSession(test.X[0], rand.Reader)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("NewClient: err = %v, want %v", err, tc.want)
			}
		})
	}
}
