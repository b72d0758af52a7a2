package similarity_test

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// parentTranscripts pins the SHA-256 over every marshalled message of one
// in-process evaluation under the deterministic rngs below (spec ‖ clear
// share ‖ area scale, then per round request ‖ setup ‖ choice ‖ transfer),
// as first produced at 31e6012, before the hyperplane and kernel variants
// shared one round machine. They were re-recorded once when the Spec lost
// its field-engine string (the field now picks the engine): a digest over
// every message but the Spec is unchanged in all four cases. Refactors
// change how values are computed, never which bytes travel.
var parentTranscripts = map[string]string{
	"linear/modp512-test":  "3a7919adf5e89d2a22ddf7cec7e680d4e0548d1854eb5ac26e61b1e5ae814109",
	"linear/x25519":        "ce837dfbf907851eca977b31e952f08b6b15a40a9dbb48912b4c7ccb8209331d",
	"linear/limb-fb18":     "fb9623e2be1f3850a74f53ba2b2e286d7928844181452d566a1db95c43195871",
	"kernel/diabetes-poly": "5f85a85e32a0a32c07abc6492da260257c5d39b409745f2f23757e09e1419482",
}

// detReader is a deterministic byte stream: SHA-256 in counter mode.
type detReader struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDetReader(seed string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(seed))}
}

func (d *detReader) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		h := sha256.New()
		h.Write(d.seed[:])
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], d.counter)
		d.counter++
		h.Write(c[:])
		d.buf = h.Sum(d.buf)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// responder and requester are the round methods both variants expose.
type responder interface {
	HandleRequest(similarity.Round, *ompe.EvalRequest, io.Reader) (*ot.BatchSetup, error)
	HandleChoice(similarity.Round, *ot.BatchChoice, io.Reader) (*ot.BatchTransfer, error)
}

type requester interface {
	StartRound(similarity.Round, io.Reader) (*ompe.EvalRequest, error)
	HandleSetup(similarity.Round, *ot.BatchSetup, io.Reader) (*ot.BatchChoice, error)
	FinishRound(similarity.Round, *ot.BatchTransfer) (*similarity.Result, error)
}

func TestTranscriptsMatchParent(t *testing.T) {
	wA, bA := []float64{0.7, -0.4, 0.2}, 0.05
	wB, bB := []float64{-0.1, 0.9, 0.3}, -0.12
	linear := []struct {
		name   string
		params similarity.Params
	}{
		{"linear/modp512-test", similarity.Params{Group: ot.Group512Test()}},
		{"linear/x25519", similarity.Params{Group: ot.X25519()}},
		{"linear/limb-fb18", similarity.Params{Group: ot.Group512Test(), FracBits: 18}},
	}
	want, err := similarity.EvaluateLinear(wA, bA, wB, bB, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range linear {
		t.Run(tc.name, func(t *testing.T) {
			aliceRng, bobRng := newDetReader("similarity-alice"), newDetReader("similarity-bob")
			alice, err := similarity.NewAlice(wA, bA, tc.params, aliceRng)
			if err != nil {
				t.Fatal(err)
			}
			spec := alice.Spec()
			bob, err := similarity.NewBob(spec, wB, bB)
			if err != nil {
				t.Fatal(err)
			}
			clear := bob.ClearShare()
			if err := alice.HandleClearShare(clear); err != nil {
				t.Fatal(err)
			}
			rounds := []similarity.Round{similarity.RoundCentroid, similarity.RoundNormal, similarity.RoundArea}
			got, res := transcriptDigest(t, alice, bob, []encoding.BinaryMarshaler{&spec, clear}, rounds, aliceRng, bobRng)
			checkTranscript(t, tc.name, got, res, want, 1e-4)
		})
	}
	t.Run("kernel/diabetes-poly", func(t *testing.T) {
		modelA, modelB := digestKernelPair(t)
		want, err := similarity.EvaluateKernel(modelA, modelB, similarity.DefaultMetric())
		if err != nil {
			t.Fatal(err)
		}
		aliceRng, bobRng := newDetReader("similarity-alice"), newDetReader("similarity-bob")
		alice, err := similarity.NewKernelAlice(modelA, similarity.Params{Group: ot.Group512Test()}, aliceRng)
		if err != nil {
			t.Fatal(err)
		}
		spec := alice.Spec()
		bob, err := similarity.NewKernelBob(spec, modelB)
		if err != nil {
			t.Fatal(err)
		}
		clear := bob.ClearShare()
		if err := alice.HandleClearShare(clear); err != nil {
			t.Fatal(err)
		}
		scale, err := alice.AnnounceAreaScale()
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.SetAreaScale(scale); err != nil {
			t.Fatal(err)
		}
		rounds := []similarity.Round{similarity.RoundCentroid}
		for range modelB.SupportVectors {
			rounds = append(rounds, similarity.RoundNormal)
		}
		rounds = append(rounds, similarity.RoundArea)
		got, res := transcriptDigest(t, alice, bob, []encoding.BinaryMarshaler{&spec, clear, scale}, rounds, aliceRng, bobRng)
		checkTranscript(t, "kernel/diabetes-poly", got, res, want, 2e-3)
	})
}

func checkTranscript(t *testing.T, name, got string, res, want *similarity.Result, tol float64) {
	t.Helper()
	if got != parentTranscripts[name] {
		t.Errorf("transcript digest %s, parent produced %s", got, parentTranscripts[name])
	}
	if math.Abs(res.TSquared-want.TSquared) > tol*(1+math.Abs(want.TSquared)) {
		t.Errorf("T² private %g, plaintext %g", res.TSquared, want.TSquared)
	}
}

// digestKernelPair trains the kernel variant's fixed diabetes pair.
func digestKernelPair(t *testing.T) (*svm.Model, *svm.Model) {
	t.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 40, 5
	var models [2]*svm.Model
	for i, seed := range []uint64{31, 32} {
		train, _, err := dataset.Generate(spec, dataset.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if models[i], err = svm.Train(train.X, train.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: 10}); err != nil {
			t.Fatal(err)
		}
	}
	return models[0], models[1]
}

// transcriptDigest runs the given rounds and hashes the prelude messages
// followed by each round's four messages, in wire order.
func transcriptDigest(t *testing.T, alice responder, bob requester, prelude []encoding.BinaryMarshaler, rounds []similarity.Round, aliceRng, bobRng io.Reader) (string, *similarity.Result) {
	t.Helper()
	h := sha256.New()
	hash := func(m encoding.BinaryMarshaler) {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	for _, m := range prelude {
		hash(m)
	}
	var res *similarity.Result
	for _, round := range rounds {
		req, err := bob.StartRound(round, bobRng)
		if err != nil {
			t.Fatal(err)
		}
		hash(req)
		setup, err := alice.HandleRequest(round, req, aliceRng)
		if err != nil {
			t.Fatal(err)
		}
		hash(setup)
		choice, err := bob.HandleSetup(round, setup, bobRng)
		if err != nil {
			t.Fatal(err)
		}
		hash(choice)
		tr, err := alice.HandleChoice(round, choice, aliceRng)
		if err != nil {
			t.Fatal(err)
		}
		hash(tr)
		if res, err = bob.FinishRound(round, tr); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), res
}
