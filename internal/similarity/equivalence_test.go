package similarity_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/wire"
)

// parentTranscripts pins the SHA-256 over every marshalled message of one
// in-process evaluation under the deterministic rngs below (spec ‖ clear
// share, then per round request ‖ setup ‖ choice ‖ transfer),
// as first produced at 31e6012, before the hyperplane and kernel variants
// shared one round machine. They were re-recorded once when the Spec lost
// its field-engine string (the field now picks the engine): a digest over
// every message but the Spec is unchanged in all four cases. They were
// re-recorded again when each round's k-of-n became one Naor–Pinkas batch,
// which changes the setups, the transfers and the rng stream behind every
// later message; parentRoundValues, which does not depend on them, passed
// unedited across that change. They were re-recorded a third time when the
// evaluation request became one byte slice of fixed-width records on every
// field: only the request encodings changed (their records are the
// fixed-width encodings of the same pairs), and parentRoundValues again
// passed unedited. linear/limb-fb18 and kernel/diabetes-poly were
// re-recorded when x25519 became the only OT group: each is the digest
// the same test produced at 8bb7231 with its params set to ot.X25519(),
// and parentRoundValues passed unedited. The two linear cases were
// re-recorded, with their parentRoundValues, when both parties moved to
// unit normals and the field came to be sized from the area value alone:
// linear/x25519 moved from 2^521−1 to 2^255−19, and both cases encode
// (w/|w|, b/|w|) and its centroid, which changes every value and message
// of theirs, fb18's included. kernel/diabetes-poly passed unedited. All
// three were re-recorded when the Naor–Pinkas messages became fixed-width
// blobs of 32-byte point encodings and the kernel clear share's alpha sum
// came to travel at the field's element width: a framing change only,
// under which parentRoundValues passed unedited. All three were re-recorded
// when the kernel variant moved to unit feature-space normals and both
// clear shares dropped the norm that is now 1 (|wB|², K(wB,wB)), along
// with the kernel's area-scale message: the linear cases changed only in
// their clear share, and their parentRoundValues passed unedited. All
// three were re-recorded when each round's k-of-n became a random OT
// that sends every evaluation once: the transfers carry the once-sent
// block, keys are taken at cofactor-cleared points, and a scalar is one
// 64-byte read, which moves every later draw; parentRoundValues passed
// unedited. The linear/limb-fb18 case (the hyperplane at 18 fractional
// bits) was dropped when the precision became a protocol constant that no
// Alice can change; the other two passed unedited. Both were re-recorded
// when requests came to carry a 16-byte point seed instead of the points
// and instance 0's slot keys became each transfer's message keys: every
// request and transfer has another layout, and Bob's rng draws a seed
// first and no points; parentRoundValues passed unedited.
// Refactors change how values are computed, never which bytes travel.
var parentTranscripts = map[string]string{
	"linear/x25519":        "6940c3b9a30163a5eef0945c993a4b3f5b445f86704c157eb2912d7f04ff9087",
	"kernel/diabetes-poly": "14e350f8b586d5b24ca448ac0d6558495c7b02a6d3effa97f109f83ed464047d",
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
	RoundValues() (x1, x2 *big.Int)
}

// parentRoundValues pins the SHA-256 over Bob's decoded round outputs of
// the same evaluations (x1 after the centroid round, x2 after every normal
// round, then T²), as recorded at 58f2b26 (the linear cases re-recorded
// with parentTranscripts for unit normals, the kernel case when it moved
// to unit feature-space normals, which rescales every αy it encodes). Alice draws r_am, r_aw and r_b
// before any OT, so these values depend on neither side's OT randomness:
// a change to how the transfers draw or spend theirs leaves them alone.
var parentRoundValues = map[string]string{
	"linear/x25519":        "bc5c08bb667c4630d0d349d4e37fc3807757ba034a5602876768d4126c0ba0a3",
	"kernel/diabetes-poly": "008e7ffa25210b26094b365d65ceaf95ddbf9950c1ec4d87be18e8f79f6ed3ea",
}

// digestCase is one evaluation of the equivalence suite: its transcript
// and round-value digests, Bob's result and the plaintext reference.
type digestCase struct {
	name              string
	transcript, value string
	res, want         *similarity.Result
	tol               float64
}

func TestTranscriptsMatchParent(t *testing.T) {
	for _, c := range digestCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.transcript != parentTranscripts[c.name] {
				t.Errorf("transcript digest %s, parent produced %s", c.transcript, parentTranscripts[c.name])
			}
			if math.Abs(c.res.TSquared-c.want.TSquared) > c.tol*(1+math.Abs(c.want.TSquared)) {
				t.Errorf("T² private %g, plaintext %g", c.res.TSquared, c.want.TSquared)
			}
		})
	}
}

func TestRoundValuesMatchParent(t *testing.T) {
	for _, c := range digestCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.value != parentRoundValues[c.name] {
				t.Errorf("round-value digest %s, parent produced %s", c.value, parentRoundValues[c.name])
			}
		})
	}
}

// digestCases runs the linear configuration and the kernel pair
// under the deterministic rngs.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	wA, bA := []float64{0.7, -0.4, 0.2}, 0.05
	wB, bB := []float64{-0.1, 0.9, 0.3}, -0.12
	linear := []struct {
		name   string
		params similarity.Params
	}{
		{"linear/x25519", similarity.Params{}},
	}
	want, err := similarity.EvaluateLinear(wA, bA, wB, bB, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	var cases []digestCase
	for _, tc := range linear {
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
		c := transcriptDigest(t, alice, bob, []wire.Msg{&spec, clear}, rounds, aliceRng, bobRng)
		c.name, c.want, c.tol = tc.name, want, 1e-4
		cases = append(cases, c)
	}

	modelA, modelB := digestKernelPair(t)
	want, err = similarity.EvaluateKernel(modelA, modelB, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	aliceRng, bobRng := newDetReader("similarity-alice"), newDetReader("similarity-bob")
	alice, err := similarity.NewKernelAlice(modelA, similarity.Params{}, aliceRng)
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
	rounds := []similarity.Round{similarity.RoundCentroid}
	for range modelB.SupportVectors {
		rounds = append(rounds, similarity.RoundNormal)
	}
	rounds = append(rounds, similarity.RoundArea)
	c := transcriptDigest(t, alice, bob, []wire.Msg{&spec, clear}, rounds, aliceRng, bobRng)
	c.name, c.want, c.tol = "kernel/diabetes-poly", want, 2e-3
	return append(cases, c)
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
// followed by each round's four messages, in wire order; alongside, it
// hashes Bob's decoded value after each round and the final T².
func transcriptDigest(t *testing.T, alice responder, bob requester, prelude []wire.Msg, rounds []similarity.Round, aliceRng, bobRng io.Reader) digestCase {
	t.Helper()
	h, hv := sha256.New(), sha256.New()
	hash := func(m wire.Msg) {
		b, err := wire.Marshal(m)
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
		x1, x2 := bob.RoundValues()
		switch round {
		case similarity.RoundCentroid:
			fmt.Fprintf(hv, "x1=%x;", x1)
		case similarity.RoundNormal:
			fmt.Fprintf(hv, "x2=%x;", x2)
		}
	}
	fmt.Fprintf(hv, "T2=%016x", math.Float64bits(res.TSquared))
	return digestCase{transcript: hex.EncodeToString(h.Sum(nil)), value: hex.EncodeToString(hv.Sum(nil)), res: res}
}
