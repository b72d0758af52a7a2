package transport_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"testing"

	"repro/internal/classify"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The per-session wire bytes follow from the session's spec. Every frame
// is a 10-byte header and a payload; a payload whose size depends on
// nothing but constants and the negotiated contract (a Hello, a Spec, a
// clear share, Done, a ticket) is taken as len(wire.Marshal(·)) of the
// message, and every per-batch or per-round payload has the closed form
// below, in the codec's primitives: a uvarint length or count, a zigzag
// varint int, and a blob — a uvarint length and its bytes.

// headerLen is the fixed frame header: version, tag, stream, length.
const headerLen = 10

// kappa is the IKNP base-OT count, and seedLen the length of a message
// key, the key ciphertext of a k-of-n of either kind, and an evaluation
// request's point seed.
const kappa, seedLen = 128, 16

// pointLen is a group element's encoding.
const pointLen = 32

// uvarintLen is the size of an unsigned varint: seven bits a byte.
func uvarintLen(x int) int { return max(1, (bits.Len64(uint64(x))+6)/7) }

// varintLen is the size of a zigzag-encoded int.
func varintLen(x int) int { return uvarintLen(int(uint64(x)<<1 ^ uint64(int64(x)>>63))) }

// blob is the size of a length-prefixed byte string of n bytes.
func blob(n int) int { return uvarintLen(n) + n }

// frame is one frame's tag and payload length.
type frame struct {
	tag byte
	n   int
}

// tagOf reads the frame tag the transport sends v under.
func tagOf(t *testing.T, v any) byte {
	t.Helper()
	return encodeFrame(t, v)[1]
}

// specFrame is a frame whose payload is fixed by the contract.
func specFrame(t *testing.T, m wire.Msg) frame {
	t.Helper()
	data, err := wire.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame{tagOf(t, m), len(data)}
}

// parseFrames splits a recorded byte stream into its frames.
func parseFrames(t *testing.T, stream []byte) []frame {
	t.Helper()
	var out []frame
	for len(stream) > 0 {
		if len(stream) < headerLen {
			t.Fatalf("%d trailing bytes are not a frame header", len(stream))
		}
		n := int(binary.BigEndian.Uint32(stream[6:10]))
		if len(stream) < headerLen+n {
			t.Fatalf("frame of %d payload bytes cut at %d", n, len(stream)-headerLen)
		}
		out = append(out, frame{stream[1], n})
		stream = stream[headerLen+n:]
	}
	return out
}

// checkFrames compares the predicted frames of one direction with the
// recorded bytes, frame by frame and in total.
func checkFrames(t *testing.T, dir string, want []frame, stream []byte) {
	t.Helper()
	got := parseFrames(t, stream)
	total := 0
	for _, f := range want {
		total += headerLen + f.n
	}
	if len(stream) != total {
		t.Errorf("%s: %d bytes, predicted %d", dir, len(stream), total)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames %v, predicted %d %v", dir, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s frame %d: tag %d with %d payload bytes, predicted tag %d with %d", dir, i, got[i].tag, got[i].n, want[i].tag, want[i].n)
		}
	}
}

// Naor–Pinkas batch messages of m instances of a 1-out-of-n. A k-of-n
// transfer of w-byte messages carries R and the once-sent block, (k−1)·n
// 16-byte key ciphertexts (instance 0's keys are the message keys) and
// the n messages once each; the IKNP base phase's carries R alone.
func setupBytes(n int) int              { return blob((n - 1) * pointLen) }
func choiceBytes(m int) int             { return blob(m * pointLen) }
func kofnTransferBytes(k, n, w int) int { return blob(pointLen) + blob((k-1)*n*seedLen+n*w) }
func baseTransferBytes() int            { return blob(pointLen) + blob(0) }

// evalRequestBytes is one OMPE evaluation request: the point seed, then
// M records of vars elements of w bytes.
func evalRequestBytes(p ompe.Params, vars int) int {
	return blob(seedLen) + blob(p.TotalPairs()*vars*p.Field.ElementLen())
}

// fastBatch returns the request and response payloads of a classify-fast
// batch of b samples: b evaluation requests and one extended k-of-n for
// all of them, k = m genuine pairs out of n = M, each instance a tree of
// ⌈log₂ M⌉ random 1-of-2s whose keys never travel. The response is one
// blob: per sample, (k−1)·n 16-byte tree ciphertexts of the message keys
// (instance 0's path digests are the keys) and the n evaluations once
// each.
func fastBatch(p ompe.Params, vars, b int) (req, resp int) {
	k, n, w := p.GenuineCount(), p.TotalPairs(), p.Field.ElementLen()
	ext := b * k * bits.Len(uint(n-1))
	req = uvarintLen(b) + b*evalRequestBytes(p, vars) +
		blob(kappa*((ext+7)/8)) + varintLen(ext) + varintLen(k) + varintLen(n) + varintLen(b)
	resp = blob(b * ((k-1)*n*seedLen + n*w))
	return req, resp
}

// similarityFrames predicts an evaluation of either §V variant: the Hello
// and Bob's clear share one way, Alice's spec the other, then for each
// round a request and a choice against a setup and a transfer. Each of
// the dots dot rounds evaluates a polynomial of the given degree in vars
// variates; the area round that closes every evaluation, Eq. (7)'s
// degree-4 polynomial in two.
func similarityFrames(t *testing.T, service string, spec, clear wire.Msg, s similarity.Spec, dots, degree, vars int) (c2s, s2c []frame) {
	t.Helper()
	codec, err := s.Codec()
	if err != nil {
		t.Fatal(err)
	}
	c2s = []frame{specFrame(t, &transport.Hello{Service: service}), specFrame(t, clear)}
	s2c = []frame{specFrame(t, spec)}
	round := func(degree, vars int) {
		p := ompe.Params{Field: codec.Field(), PolyDegree: degree, MaskDegree: s.MaskDegree, CoverFactor: s.CoverFactor}
		k, n := p.GenuineCount(), p.TotalPairs()
		c2s = append(c2s,
			frame{tagOf(t, &ompe.EvalRequest{}), evalRequestBytes(p, vars)},
			frame{tagOf(t, &ot.BatchChoice{}), choiceBytes(k)})
		s2c = append(s2c,
			frame{tagOf(t, &ot.BatchSetup{}), setupBytes(n)},
			frame{tagOf(t, &ot.BatchTransfer{}), kofnTransferBytes(k, n, p.Field.ElementLen())})
	}
	for range dots {
		round(degree, vars)
	}
	round(4, 2)
	return c2s, s2c
}

// TestWireBytesFromSpec predicts every frame of four sessions from their
// specs and checks the recorded bytes against the prediction, for ten
// seeds of both parties' randomness: a full classify-fast session at
// n = 8 (base phase, batches of 1, 3 and 4, a ticket), the session that
// resumes from its ticket, a linear similarity evaluation (three rounds:
// two dot rounds, a 3-of-6 each, and the area round, a 9-of-18) and a
// kernel similarity evaluation on the paper's cubic (2 + |S_B| rounds: the
// centroid round and one normal round per support vector of Bob's, each a
// 7-of-14 on 2^521−1, then the area round).
// The Naor–Pinkas messages have one length per shape, so nothing here
// depends on the points drawn.
func TestWireBytesFromSpec(t *testing.T) {
	model, test := trainLinear(t, 41)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	spec := trainer.Spec()
	if spec.Dim != 8 {
		t.Fatalf("model dim %d, want 8", spec.Dim)
	}
	params, err := spec.OMPEParams()
	if err != nil {
		t.Fatal(err)
	}
	vars := spec.Dim // a linear model: one variate per feature
	batches := []int{1, 3, 4}
	wA, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	modelB, _ := trainLinear(t, 42)
	wB, err := modelB.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	polyA, polyB := trainPoly(t, 21), trainPoly(t, 22)
	for seed := 0; seed < 10; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			srv := quietServer(t, trainer)
			srv.Rand = newDetReader(fmt.Sprintf("wire-bytes-server-%d", seed))
			srv.EnableSimilarity(wA, model.Bias, similarity.Params{})
			clientRand := newDetReader(fmt.Sprintf("wire-bytes-client-%d", seed))

			// classifySession runs the batches on one session and returns
			// the resumption state it harvests at Close.
			classifySession := func(opts transport.Options) (c2s, s2c []byte, state *transport.ResumeState) {
				c2s, s2c = recordSession(t, srv, func(rc net.Conn) error {
					fc, err := transport.NewFastClassifyClientContext(t.Context(), rc, opts, clientRand)
					if err != nil {
						return err
					}
					lo := 0
					for _, b := range batches {
						if _, err := fc.ClassifyBatchContext(t.Context(), test.X[lo:lo+b]); err != nil {
							return err
						}
						lo += b
					}
					if err := fc.Close(); err != nil {
						return err
					}
					state = fc.ResumeState()
					return nil
				})
				if state == nil {
					t.Fatal("no resumption state harvested")
				}
				return c2s, s2c, state
			}
			// batchFrames appends the frames of the batches and Done, and
			// the ticket the server answers Done with.
			batchFrames := func(c2s, s2c []frame, ticket []byte) ([]frame, []frame) {
				for _, b := range batches {
					req, resp := fastBatch(params, vars, b)
					c2s = append(c2s, frame{tagOf(t, &ompe.FastBatchRequest{OT: &ot.ExtKofNBatchRequest{IKNP: &ot.IKNPReceiverMsg{}}}), req})
					s2c = append(s2c, frame{tagOf(t, &ompe.FastBatchResponse{OT: &ot.ExtKofNBatchResponse{}}), resp})
				}
				c2s = append(c2s, specFrame(t, &transport.Done{}))
				return c2s, append(s2c, specFrame(t, &transport.SessionTicket{Ticket: ticket}))
			}

			full := transport.Options{OfferResume: true}
			c2s, s2c, state := classifySession(full)
			wantC2S := []frame{
				specFrame(t, &transport.Hello{Service: "classify-fast", ResumeOffered: true}),
				{tagOf(t, &ot.BatchSetup{}), setupBytes(2)},
				{tagOf(t, &ot.BatchTransfer{}), baseTransferBytes()},
			}
			wantS2C := []frame{
				specFrame(t, &spec),
				{tagOf(t, &ot.BatchChoice{}), choiceBytes(kappa)},
			}
			wantC2S, wantS2C = batchFrames(wantC2S, wantS2C, state.Ticket)
			checkFrames(t, "full session client→server", wantC2S, c2s)
			checkFrames(t, "full session server→client", wantS2C, s2c)

			c2s, s2c, next := classifySession(transport.Options{Resume: state})
			granted := spec
			granted.ResumeGranted = true
			wantC2S = []frame{specFrame(t, &transport.Hello{Service: "classify-fast", ResumeOffered: true, ResumeTicket: state.Ticket})}
			wantS2C = []frame{specFrame(t, &granted)}
			wantC2S, wantS2C = batchFrames(wantC2S, wantS2C, next.Ticket)
			checkFrames(t, "resumed session client→server", wantC2S, c2s)
			checkFrames(t, "resumed session server→client", wantS2C, s2c)

			c2s, s2c = recordSession(t, srv, func(rc net.Conn) error {
				_, err := transport.EvaluateSimilarityContext(t.Context(), rc, wB, modelB.Bias, transport.Options{}, clientRand)
				return err
			})
			alice, err := similarity.NewAlice(wA, model.Bias, similarity.Params{}, newDetReader("spec"))
			if err != nil {
				t.Fatal(err)
			}
			simSpec := alice.Spec()
			wantC2S, wantS2C = similarityFrames(t, "similarity-linear", &simSpec, &similarity.ClearShare{}, simSpec, 2, 1, simSpec.Dim)
			checkFrames(t, "similarity client→server", wantC2S, c2s)
			checkFrames(t, "similarity server→client", wantS2C, s2c)

			ksrv := kernelSimServer(t, polyA)
			ksrv.Rand = newDetReader(fmt.Sprintf("wire-bytes-kernel-server-%d", seed))
			c2s, s2c = recordSession(t, ksrv, func(rc net.Conn) error {
				_, err := transport.EvaluateKernelSimilarityContext(t.Context(), rc, polyB, transport.Options{}, clientRand)
				return err
			})
			kalice, err := similarity.NewKernelAlice(polyA, similarity.Params{}, newDetReader("spec"))
			if err != nil {
				t.Fatal(err)
			}
			kspec := kalice.Spec()
			clear := &similarity.KernelClearShare{NumSupport: len(polyB.SupportVectors), AlphaSum: make([]byte, (kspec.FieldBits+7)/8)}
			wantC2S, wantS2C = similarityFrames(t, "similarity-kernel", &kspec, clear, kspec.Spec, 1+clear.NumSupport, kspec.Kernel.Degree, kspec.Dim)
			checkFrames(t, "kernel similarity client→server", wantC2S, c2s)
			checkFrames(t, "kernel similarity server→client", wantS2C, s2c)
		})
	}
}
