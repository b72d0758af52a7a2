package transport_test

// Robustness tests for the deadline/backoff options, graceful shutdown,
// the MaxSessions cap, and session-slot recycling after mid-protocol
// client failures.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faultnet"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newTrainer builds a small linear trainer for robustness tests.
func newTrainer(t *testing.T, seed uint64) (*classify.Trainer, []float64) {
	t.Helper()
	model, test := trainLinear(t, seed)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return trainer, test.X[0]
}

// legacySeq encodes messages in the list layout the k-of-n setup and
// transfer had while every instance carried its own constraints and R: a
// count, then each message.
func legacySeq[M interface{ EncodeWire(*wire.Writer) }](msgs []M) []byte {
	w := wire.NewAppendWriter(nil)
	w.Count(len(msgs))
	for _, m := range msgs {
		m.EncodeWire(w)
	}
	return w.Bytes()
}

// reframe returns payload under the frame header of v's encoding.
func reframe(t *testing.T, v any, payload []byte) []byte {
	t.Helper()
	hdr := encodeFrame(t, v)[:10]
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	return append(hdr, payload...)
}

// retiredBaseTag is the frame tag the IKNP base setup travelled under
// until the base phase moved to the k-of-n tags 4–6.
const retiredBaseTag = 14

// legacyBaseSetupFrame is the base-setup frame (tag 14) of a client from
// before the κ base OTs shared one constraint: κ one-constraint setups,
// laid out as a k-of-n BatchSetup was then.
func legacyBaseSetupFrame(t *testing.T, setup *ot.BatchSetup) []byte {
	t.Helper()
	setups := make([]*ot.BatchSetup, 128)
	for i := range setups {
		setups[i] = setup
	}
	frame := reframe(t, setup, legacySeq(setups))
	frame[1] = retiredBaseTag
	return frame
}

// retiredTagBaseSetupFrame is the base setup of a client from before the
// base phase moved to tag 4: today's payload under tag 14.
func retiredTagBaseSetupFrame(t *testing.T, setup *ot.BatchSetup) []byte {
	t.Helper()
	frame := encodeFrame(t, setup)
	frame[1] = retiredBaseTag
	return frame
}

// retiredQueryFrame is a classification of one sample framed under tag 17,
// the retired single-query request: the layout of a batch of one without
// its leading sample count and trailing B.
func retiredQueryFrame(t *testing.T, fc *classify.FastClient, sample []float64) []byte {
	t.Helper()
	_, req, err := fc.NewBatch([][]float64{sample}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != 1 || batch[len(batch)-1] != 2 { // uvarint 1, zigzag varint 1
		t.Fatalf("unexpected batch-of-one framing: % x ... % x", batch[0], batch[len(batch)-1])
	}
	frame := reframe(t, req, batch[1:len(batch)-1])
	frame[1] = 17
	return frame
}

// TestSessionSlotFreedOnMidOTDisconnect: a client that fails in the
// middle of the IKNP session must not pin its session slot: with
// MaxSessions=1, a subsequent client gets served. Client A either
// vanishes after receiving the base OT choice, before sending the base
// transfer, or sends its base setup under the retired tag 14 (in the
// pre-batch layout or in today's), or completes the base phase and sends
// a query under the retired single-query tag 17; the server refuses the
// last three with a remote error naming the tag.
func TestSessionSlotFreedOnMidOTDisconnect(t *testing.T) {
	for _, tc := range []struct {
		name string
		// abandon drives client A's session after the spec and returns
		// once A has given up on it.
		abandon func(t *testing.T, conn *transport.Conn, raw net.Conn, fc *classify.FastClient, setup *ot.BatchSetup, sample []float64)
	}{
		{"disconnect after base choice", func(t *testing.T, conn *transport.Conn, _ net.Conn, _ *classify.FastClient, setup *ot.BatchSetup, _ []float64) {
			if err := conn.Send(setup); err != nil {
				t.Fatal(err)
			}
			// Mid-OT: the server has sent its base choice and waits for
			// the base transfer.
			if _, err := transport.Recv[*ot.BatchChoice](conn); err != nil {
				t.Fatal(err)
			}
		}},
		{"pre-batch base setup", func(t *testing.T, conn *transport.Conn, raw net.Conn, _ *classify.FastClient, setup *ot.BatchSetup, _ []float64) {
			if _, err := raw.Write(legacyBaseSetupFrame(t, setup)); err != nil {
				t.Fatal(err)
			}
			_, err := transport.Recv[*ot.BatchChoice](conn)
			if !errors.Is(err, transport.ErrRemote) || !strings.Contains(err.Error(), "unknown frame tag 0x0e") {
				t.Fatalf("pre-batch base setup: err = %v, want a remote unknown-tag error for tag 0x0e", err)
			}
		}},
		{"base setup under retired tag 14", func(t *testing.T, conn *transport.Conn, raw net.Conn, _ *classify.FastClient, setup *ot.BatchSetup, _ []float64) {
			if _, err := raw.Write(retiredTagBaseSetupFrame(t, setup)); err != nil {
				t.Fatal(err)
			}
			_, err := transport.Recv[*ot.BatchChoice](conn)
			if !errors.Is(err, transport.ErrRemote) || !strings.Contains(err.Error(), "unknown frame tag 0x0e") {
				t.Fatalf("base setup under tag 14: err = %v, want a remote unknown-tag error for tag 0x0e", err)
			}
		}},
		{"retired single-query tag", func(t *testing.T, conn *transport.Conn, raw net.Conn, fc *classify.FastClient, setup *ot.BatchSetup, sample []float64) {
			if err := conn.Send(setup); err != nil {
				t.Fatal(err)
			}
			choice, err := transport.Recv[*ot.BatchChoice](conn)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := fc.FinishBase(choice, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Send(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(retiredQueryFrame(t, fc, sample)); err != nil {
				t.Fatal(err)
			}
			_, err = transport.Recv[*ompe.FastBatchResponse](conn)
			if !errors.Is(err, transport.ErrRemote) || !strings.Contains(err.Error(), "tag 0x11") {
				t.Fatalf("retired single-query tag: err = %v, want a remote error naming tag 0x11", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trainer, sample := newTrainer(t, 41)
			srv := quietServer(t, trainer)
			srv.MaxSessions = 1

			// Client A: drive the base phase by hand, then vanish.
			serverSideA, clientSideA := net.Pipe()
			doneA := make(chan struct{})
			go func() {
				defer close(doneA)
				srv.ServeConn(serverSideA)
			}()
			connA := transport.NewConn(clientSideA)
			if err := connA.Send(&transport.Hello{Service: "classify-fast"}); err != nil {
				t.Fatal(err)
			}
			spec, err := transport.Recv[*classify.Spec](connA)
			if err != nil {
				t.Fatal(err)
			}
			fc, setup, err := classify.NewFastClient(*spec, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			tc.abandon(t, connA, clientSideA, fc, setup, sample)
			if err := connA.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-doneA:
			case <-time.After(10 * time.Second):
				t.Fatal("server session did not end after client A gave up")
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("abandoned session still counted: %d active", n)
			}

			// Client B must now be admitted and served correctly.
			serverSideB, clientSideB := net.Pipe()
			doneB := make(chan struct{})
			go func() {
				defer close(doneB)
				srv.ServeConn(serverSideB)
			}()
			cc, err := transport.NewFastClassifyClient(clientSideB, rand.Reader)
			if err != nil {
				t.Fatalf("client B rejected after A's slot should have freed: %v", err)
			}
			if _, err := cc.Classify(sample); err != nil {
				t.Fatalf("client B classify: %v", err)
			}
			if err := cc.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-doneB:
			case <-time.After(10 * time.Second):
				t.Fatal("server session B did not end")
			}
		})
	}
}

// TestSimilaritySlotFreedOnOldLayoutKofN: a similarity client that
// answers the first round's setup with a k-of-n frame in the layout from
// before the k instances shared one batch — k setups under tag 4, or k
// transfers under tag 6 — ends its session with a remote error, and with
// MaxSessions=1 the next similarity client is served.
func TestSimilaritySlotFreedOnOldLayoutKofN(t *testing.T) {
	modelA, _ := trainLinear(t, 13)
	modelB, _ := trainLinear(t, 14)
	wA, err := modelA.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	wB, err := modelB.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	// Both payloads are a 3-of-n in the old layout, n read off the setup
	// the server just sent: three setups of n−1 constraints, or three
	// transfers of one R and n ciphertexts. Fixed small elements keep the
	// decode failure the same on every run.
	for _, tc := range []struct {
		name    string
		proto   any // a message under the frame's tag
		payload func(n int) []byte
		tag     string
	}{
		{"k setups", &ot.BatchSetup{}, func(n int) []byte {
			setup := &ot.BatchSetup{Cs: make([]*big.Int, n-1)}
			for j := range setup.Cs {
				setup.Cs[j] = big.NewInt(int64(j + 9))
			}
			return legacySeq([]*ot.BatchSetup{setup, setup, setup})
		}, "tag 0x04"},
		{"k transfers", &ot.BatchTransfer{R: big.NewInt(1)}, func(n int) []byte {
			tr := &ot.BatchTransfer{R: big.NewInt(31337), Cts: make([][]byte, n)}
			for j := range tr.Cts {
				tr.Cts[j] = bytes.Repeat([]byte{byte(j)}, 16)
			}
			return legacySeq([]*ot.BatchTransfer{tr, tr, tr})
		}, "tag 0x06"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trainer, err := classify.NewTrainer(modelA, classify.Params{})
			if err != nil {
				t.Fatal(err)
			}
			srv := quietServer(t, trainer)
			srv.EnableSimilarity(wA, modelA.Bias, similarity.Params{})
			srv.MaxSessions = 1

			serverSideA, clientSideA := net.Pipe()
			doneA := make(chan struct{})
			go func() {
				defer close(doneA)
				srv.ServeConn(serverSideA)
			}()
			connA := transport.NewConn(clientSideA)
			if err := connA.Send(&transport.Hello{Service: "similarity-linear"}); err != nil {
				t.Fatal(err)
			}
			spec, err := transport.Recv[*similarity.Spec](connA)
			if err != nil {
				t.Fatal(err)
			}
			bob, err := similarity.NewBob(*spec, wB, modelB.Bias)
			if err != nil {
				t.Fatal(err)
			}
			if err := connA.Send(bob.ClearShare()); err != nil {
				t.Fatal(err)
			}
			if err := connA.Send(&transport.RoundHeader{Round: similarity.RoundCentroid}); err != nil {
				t.Fatal(err)
			}
			req, err := bob.StartRound(similarity.RoundCentroid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := connA.Send(req); err != nil {
				t.Fatal(err)
			}
			setup, err := transport.Recv[*ot.BatchSetup](connA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := clientSideA.Write(reframe(t, tc.proto, tc.payload(len(setup.Cs)+1))); err != nil {
				t.Fatal(err)
			}
			_, err = transport.Recv[*ot.BatchTransfer](connA)
			if !errors.Is(err, transport.ErrRemote) || !strings.Contains(err.Error(), tc.tag) {
				t.Fatalf("err = %v, want a remote error naming %s", err, tc.tag)
			}
			if err := connA.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-doneA:
			case <-time.After(10 * time.Second):
				t.Fatal("server session did not end after the old-layout frame")
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("refused session still counted: %d active", n)
			}

			serverSideB, clientSideB := net.Pipe()
			go srv.ServeConn(serverSideB)
			if _, err := transport.EvaluateSimilarity(clientSideB, wB, modelB.Bias, rand.Reader); err != nil {
				t.Fatalf("client B after A's slot should have freed: %v", err)
			}
		})
	}
}

// TestMaxSessionsRejects: with the single slot occupied, the next client
// is rejected with a remote busy error instead of queueing silently.
func TestMaxSessionsRejects(t *testing.T) {
	trainer, sample := newTrainer(t, 42)
	srv := quietServer(t, trainer)
	srv.MaxSessions = 1

	serverSideA, clientSideA := net.Pipe()
	go srv.ServeConn(serverSideA)
	ccA, err := transport.NewFastClassifyClient(clientSideA, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ccA.Close() }()
	if _, err := ccA.Classify(sample); err != nil {
		t.Fatal(err)
	}

	serverSideB, clientSideB := net.Pipe()
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		srv.ServeConn(serverSideB)
	}()
	_, err = transport.NewFastClassifyClient(clientSideB, rand.Reader)
	if err == nil {
		t.Fatal("second client should be rejected at capacity 1")
	}
	if !errors.Is(err, transport.ErrRemote) || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("want remote busy error, got %v", err)
	}
	select {
	case <-doneB:
	case <-time.After(10 * time.Second):
		t.Fatal("rejected session did not end")
	}
}

// TestShutdownDrainsInFlight: Shutdown with a generous context lets an
// in-flight session finish, then rejects newcomers.
func TestShutdownDrainsInFlight(t *testing.T) {
	trainer, sample := newTrainer(t, 43)
	srv := quietServer(t, trainer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	cc, err := transport.DialClassifyFast(ln.Addr().String(), 5*time.Second, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener and enter draining.
	time.Sleep(100 * time.Millisecond)

	// The in-flight session still completes during the drain.
	if _, err := cc.Classify(sample); err != nil {
		t.Fatalf("in-flight classify during drain: %v", err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-shutdownDone:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not complete after sessions drained")
	}

	// New connections are refused (listener is gone).
	if _, err := transport.DialClassifyFast(ln.Addr().String(), 300*time.Millisecond, rand.Reader); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

// TestShutdownForceClosesStragglers: when the drain context expires, the
// remaining sessions are force-closed and Shutdown reports ctx.Err().
func TestShutdownForceClosesStragglers(t *testing.T) {
	trainer, _ := newTrainer(t, 44)
	srv := quietServer(t, trainer)

	// A session that will never finish: the client connects and goes
	// silent (no deadline pressure server-side for this test).
	srv.MessageDeadline = transport.NoDeadline
	serverSide, clientSide := net.Pipe()
	sessionDone := make(chan struct{})
	go func() {
		defer close(sessionDone)
		srv.ServeConn(serverSide)
	}()
	conn := transport.NewConn(clientSide)
	if err := conn.Send(&transport.Hello{Service: "classify-fast"}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Recv[*classify.Spec](conn); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from bounded shutdown, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounded shutdown took %v", elapsed)
	}
	select {
	case <-sessionDone:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler session survived forced shutdown")
	}
	_ = conn.Close()
}

// TestMessageDeadlineTable: the deadline knob across its whole range —
// zero (default applies), tiny (must fail fast with ErrTimeout),
// generous, and disabled.
func TestMessageDeadlineTable(t *testing.T) {
	trainer, sample := newTrainer(t, 45)
	cases := []struct {
		name     string
		deadline time.Duration
		latency  time.Duration // injected per-op latency on the client side
		wantErr  bool
	}{
		{name: "zero-selects-default", deadline: 0, wantErr: false},
		{name: "tiny-fails-fast", deadline: time.Millisecond, latency: 25 * time.Millisecond, wantErr: true},
		{name: "generous-succeeds", deadline: 30 * time.Second, latency: time.Millisecond, wantErr: false},
		{name: "disabled-succeeds", deadline: transport.NoDeadline, wantErr: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := quietServer(t, trainer)
			serverSide, clientSide := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(serverSide)
			}()
			rw := faultnet.Wrap(clientSide, faultnet.Profile{Latency: tc.latency})
			opts := transport.Options{MessageDeadline: tc.deadline}

			result := make(chan error, 1)
			start := time.Now()
			go func() {
				cc, err := transport.NewFastClassifyClientContext(context.Background(), rw, opts, rand.Reader)
				if err != nil {
					result <- err
					return
				}
				if _, err := cc.Classify(sample); err != nil {
					result <- err
					return
				}
				result <- cc.Close()
			}()
			var err error
			select {
			case err = <-result:
			case <-time.After(30 * time.Second):
				t.Fatal("round trip hung")
			}
			elapsed := time.Since(start)
			if tc.wantErr {
				if err == nil {
					t.Fatal("tiny deadline should have failed")
				}
				if !errors.Is(err, transport.ErrTimeout) {
					t.Fatalf("want ErrTimeout, got %v", err)
				}
				if elapsed > 5*time.Second {
					t.Fatalf("tiny deadline took %v to fail", elapsed)
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			_ = rw.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("server session did not end")
			}
		})
	}
}

// TestContextCancelMidRoundTrip: a context canceled while the exchange is
// blocked (peer gone silent, no message deadline armed) must abandon the
// session promptly with ErrCanceled carrying the context cause.
func TestContextCancelMidRoundTrip(t *testing.T) {
	trainer, sample := newTrainer(t, 46)
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	// Stall the client's view of the network halfway through the query,
	// past the measured handshake bytes; with deadlines disabled only the
	// context can unblock it.
	hsWrote, hsRead, totalWrote, totalRead := measureFastBatch(t, trainer, [][]float64{sample})
	hs := hsWrote + hsRead
	rw := faultnet.Wrap(clientSide, faultnet.Profile{StallAfter: hs + (totalWrote+totalRead-hs)/2})
	opts := transport.Options{MessageDeadline: transport.NoDeadline}
	cc, err := transport.NewFastClassifyClientContext(context.Background(), rw, opts, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cc.ClassifyContext(ctx, sample)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled round trip should fail")
	}
	if !errors.Is(err, transport.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause should be the context's deadline, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
	_ = rw.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestDialRetryExhausts: a dead address fails after the configured number
// of attempts, and the error says so.
func TestDialRetryExhausts(t *testing.T) {
	opts := transport.Options{
		DialTimeout: 200 * time.Millisecond,
		MaxAttempts: 3,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		JitterSeed:  99,
	}
	start := time.Now()
	_, err := transport.DialClassifyFastContext(context.Background(), "127.0.0.1:1", opts, rand.Reader)
	if err == nil {
		t.Fatal("dial to dead port should fail")
	}
	if !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Fatalf("error should report attempt count: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry loop took %v", elapsed)
	}
}

// TestDialRetryRecovers: a listener that appears between attempts is
// reached by a later attempt — the point of retrying at all.
func TestDialRetryRecovers(t *testing.T) {
	trainer, sample := newTrainer(t, 47)
	srv := quietServer(t, trainer)

	// Reserve an address, then free it so the first attempt fails.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	// Bring the server up shortly after the first attempt will have
	// failed.
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail on dial below
		}
		_ = srv.Serve(ln)
	}()
	defer func() { _ = srv.Close() }()

	opts := transport.Options{
		DialTimeout: time.Second,
		MaxAttempts: 10,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  400 * time.Millisecond,
		JitterSeed:  7,
	}
	cc, err := transport.DialClassifyFastContext(context.Background(), addr, opts, rand.Reader)
	if err != nil {
		t.Fatalf("retrying dial never reached the late server: %v", err)
	}
	defer func() { _ = cc.Close() }()
	if _, err := cc.Classify(sample); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryHonorsContext: cancellation during the backoff wait stops
// the retry loop immediately.
func TestDialRetryHonorsContext(t *testing.T) {
	opts := transport.Options{
		DialTimeout: 200 * time.Millisecond,
		MaxAttempts: 50,
		BackoffBase: 500 * time.Millisecond,
		BackoffMax:  500 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := transport.DialClassifyFastContext(ctx, "127.0.0.1:1", opts, rand.Reader)
	if err == nil {
		t.Fatal("canceled dial should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled retry loop ran %v", elapsed)
	}
}
