package transport_test

// Session-resumption negotiation, end to end: the offer/grant matrix
// over real sessions, ticket chains across redials, silent fallback for
// stale/tampered/replayed tickets, refusal of rogue grants with the
// typed ErrResume, and legacy interop. Ticketer-level lifecycle tests
// (expiry clock, replay ledger) live in resume_internal_test.go.

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/transport"
)

// resumeHarness owns one server instance and dials fresh in-memory
// sessions against it, so tickets minted in one session can be presented
// in the next (same process, same mint).
type resumeHarness struct {
	t       *testing.T
	trainer *classify.Trainer
	srv     *transport.Server
	samples [][]float64
	want    []int
}

func newResumeHarness(t *testing.T, seed uint64) *resumeHarness {
	t.Helper()
	model, test := trainLinear(t, seed)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:4]
	return &resumeHarness{
		t:       t,
		trainer: trainer,
		srv:     quietServer(t, trainer),
		samples: samples,
		want:    localReference(t, trainer, samples),
	}
}

// session runs one full query+close cycle with the given options and
// returns the client for post-close inspection (Resumed, ResumeState).
func (h *resumeHarness) session(opts transport.Options, rngSeed string) *transport.FastClassifyClient {
	h.t.Helper()
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClientContext(h.t.Context(), clientSide, opts, newDetReader(rngSeed))
	if err != nil {
		h.t.Fatal(err)
	}
	got, err := fc.ClassifyBatch(h.samples)
	if err != nil {
		h.t.Fatal(err)
	}
	checkLabels(h.t, got, h.want, "resume session "+rngSeed)
	if err := fc.Close(); err != nil {
		h.t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		h.t.Fatal("server session did not end")
	}
	return fc
}

// TestResumeTicketChain drives the happy path across three dials: full
// handshake with an offer, then two resumed sessions each presenting the
// previous session's ticket. Correct labels on every hop prove the
// restored OT state stayed in lockstep; distinct tickets prove each
// clean close re-arms the chain.
func TestResumeTicketChain(t *testing.T) {
	h := newResumeHarness(t, 61)

	first := h.session(transport.Options{OfferResume: true}, "resume-chain-1")
	if first.Resumed() {
		t.Fatal("first session cannot be resumed")
	}
	st1 := first.ResumeState()
	if st1 == nil || len(st1.Ticket) == 0 || st1.Receiver == nil {
		t.Fatalf("no resume state harvested at clean close: %+v", st1)
	}

	second := h.session(transport.Options{Resume: st1}, "resume-chain-2")
	if !second.Resumed() {
		t.Fatal("second session did not resume")
	}
	st2 := second.ResumeState()
	if st2 == nil || len(st2.Ticket) == 0 {
		t.Fatal("resumed session did not re-arm the ticket chain")
	}
	if bytes.Equal(st1.Ticket, st2.Ticket) {
		t.Fatal("second ticket identical to the first (single-use discipline broken)")
	}
	// Counter monotonicity across the chain: the re-harvested receiver
	// state must be strictly past the first snapshot.
	if st2.Receiver.Batch <= st1.Receiver.Batch {
		t.Fatalf("receiver batch counter went %d -> %d; must be strictly monotonic", st1.Receiver.Batch, st2.Receiver.Batch)
	}

	third := h.session(transport.Options{Resume: st2}, "resume-chain-3")
	if !third.Resumed() {
		t.Fatal("third session did not resume")
	}
}

// TestResumeNegotiationMatrix covers the decline quadrants: no offer
// yields no ticket, an offer against a resumption-disabled server yields
// no ticket, and a ticket presented to a disabled server falls back to a
// full handshake instead of failing.
func TestResumeNegotiationMatrix(t *testing.T) {
	t.Run("no offer, no ticket", func(t *testing.T) {
		h := newResumeHarness(t, 62)
		fc := h.session(transport.Options{}, "resume-matrix-none")
		if fc.ResumeState() != nil {
			t.Fatal("un-offered session harvested a ticket")
		}
	})
	t.Run("offer against disabled server", func(t *testing.T) {
		h := newResumeHarness(t, 63)
		h.srv.DisableResume = true
		fc := h.session(transport.Options{OfferResume: true}, "resume-matrix-disabled")
		if fc.ResumeState() != nil {
			t.Fatal("disabled server minted a ticket")
		}
	})
	t.Run("ticket against disabled server", func(t *testing.T) {
		h := newResumeHarness(t, 64)
		first := h.session(transport.Options{OfferResume: true}, "resume-matrix-predisable")
		st := first.ResumeState()
		if st == nil {
			t.Fatal("no ticket to present")
		}
		h.srv.DisableResume = true
		second := h.session(transport.Options{Resume: st}, "resume-matrix-postdisable")
		if second.Resumed() {
			t.Fatal("disabled server resumed a session")
		}
	})
}

// TestResumeStaleTicketsFallBack: tampered and replayed tickets are
// silently declined into working full handshakes — a client holding a
// stale ticket did nothing wrong and must not see an error.
func TestResumeStaleTicketsFallBack(t *testing.T) {
	t.Run("tampered", func(t *testing.T) {
		h := newResumeHarness(t, 65)
		first := h.session(transport.Options{OfferResume: true}, "resume-stale-mint")
		st := first.ResumeState()
		if st == nil {
			t.Fatal("no ticket harvested")
		}
		bad := *st
		bad.Ticket = append([]byte(nil), st.Ticket...)
		bad.Ticket[len(bad.Ticket)-1] ^= 0x01
		second := h.session(transport.Options{Resume: &bad}, "resume-stale-tampered")
		if second.Resumed() {
			t.Fatal("tampered ticket resumed")
		}
	})
	t.Run("replayed", func(t *testing.T) {
		h := newResumeHarness(t, 66)
		first := h.session(transport.Options{OfferResume: true}, "resume-replay-mint")
		st := first.ResumeState()
		if st == nil {
			t.Fatal("no ticket harvested")
		}
		second := h.session(transport.Options{Resume: st}, "resume-replay-use")
		if !second.Resumed() {
			t.Fatal("first presentation did not resume")
		}
		// Same ticket again: the server's replay ledger declines it and
		// the session completes on a fresh base phase.
		third := h.session(transport.Options{Resume: st}, "resume-replay-again")
		if third.Resumed() {
			t.Fatal("replayed ticket resumed — pad reuse would follow")
		}
	})
}

// TestResumeGrantRefusedWhenUnoffered hand-rolls a misbehaving server
// that grants resumption to a client that never offered it. The client
// must refuse with the typed ErrResume instead of running a session
// whose state provenance it cannot account for.
func TestResumeGrantRefusedWhenUnoffered(t *testing.T) {
	model, _ := trainLinear(t, 67)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn := transport.NewConn(serverSide)
		if _, err := transport.Recv[*transport.Hello](conn); err != nil {
			return
		}
		spec := trainer.Spec()
		spec.ResumeGranted = true // never offered by this client
		_ = conn.Send(&spec)
	}()
	_, err = transport.NewFastClassifyClientContext(t.Context(), clientSide,
		transport.Options{}, newDetReader("resume-rogue-client"))
	if !errors.Is(err, transport.ErrResume) {
		t.Fatalf("handshake error = %v, want transport.ErrResume", err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("rogue server did not finish")
	}
}

// TestResumeDivergentContractRefused: a grant whose spec digest no
// longer matches the one the ticket was minted under must be refused by
// the client — reusing the cached receiver state under a different
// contract is exactly the bug ErrResume exists to catch.
func TestResumeDivergentContractRefused(t *testing.T) {
	h := newResumeHarness(t, 68)
	first := h.session(transport.Options{OfferResume: true}, "resume-diverge-mint")
	st := first.ResumeState()
	if st == nil {
		t.Fatal("no ticket harvested")
	}
	bad := *st
	bad.SpecSum = append([]byte(nil), st.SpecSum...)
	bad.SpecSum[0] ^= 0x01

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.srv.ServeConn(serverSide)
	}()
	_, err := transport.NewFastClassifyClientContext(t.Context(), clientSide,
		transport.Options{Resume: &bad}, newDetReader("resume-diverge-client"))
	if !errors.Is(err, transport.ErrResume) {
		t.Fatalf("handshake error = %v, want transport.ErrResume", err)
	}
	_ = clientSide.Close()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server session did not end")
	}
}

// swapSource is a hot-swappable TrainerSource for contract-drift tests.
type swapSource struct {
	tr atomic.Pointer[classify.Trainer]
}

func (s *swapSource) CurrentTrainer() *classify.Trainer { return s.tr.Load() }

// TestResumeHotSwapContractInvalidation: a hot-swap that changes the
// negotiated contract (here the amplifier width, i.e. a different Spec)
// must invalidate outstanding tickets — the redial silently declines
// into a full handshake under the NEW contract instead of restoring OT
// state minted under the old one.
func TestResumeHotSwapContractInvalidation(t *testing.T) {
	model, test := trainLinear(t, 70)
	tr1, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := classify.NewTrainer(model, classify.Params{AmplifierBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	src := &swapSource{}
	src.tr.Store(tr1)
	srv := transport.NewServerSource(src)
	srv.Logf = nil
	samples := test.X[:4]
	h := &resumeHarness{
		t:       t,
		trainer: tr1,
		srv:     srv,
		samples: samples,
		want:    localReference(t, tr1, samples),
	}
	first := h.session(transport.Options{OfferResume: true}, "resume-hotswap-mint")
	st := first.ResumeState()
	if st == nil {
		t.Fatal("no ticket harvested")
	}

	src.tr.Store(tr2)
	h.want = localReference(t, tr2, samples)
	second := h.session(transport.Options{Resume: st}, "resume-hotswap-redial")
	if second.Resumed() {
		t.Fatal("ticket survived a contract-changing hot-swap")
	}
}

// TestResumeLegacyClientUntouched: a client predating resumption (no
// offer, no ticket fields) against a resumption-enabled server runs the
// exact legacy handshake — covered byte-for-byte by the golden
// transcripts; here we pin the behavioral half: full session, correct
// labels, no ticket message after Done.
func TestResumeLegacyClientUntouched(t *testing.T) {
	h := newResumeHarness(t, 69)
	fc := h.session(transport.Options{}, "resume-legacy")
	if fc.Resumed() || fc.ResumeState() != nil {
		t.Fatal("legacy-shaped session saw resumption artifacts")
	}
}
