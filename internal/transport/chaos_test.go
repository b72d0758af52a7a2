package transport_test

// Chaos suite: full protocol round trips over faultnet-wrapped in-memory
// connections, across a matrix of injected network faults. The contract
// under test: benign degradation (latency, fragmentation) must not change
// results, and every hard fault must surface as a typed error within the
// deadline budget — never a hang, panic, or silent wrong answer.

import (
	"crypto/rand"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faultnet"
	"repro/internal/similarity"
	"repro/internal/transport"
)

// chaosCase is one cell of the fault matrix.
type chaosCase struct {
	name    string
	profile faultnet.Profile
	// wantOK: the round trip must succeed with a correct result.
	wantOK bool
	// wantErr: at least one of these sentinels must be in the error chain.
	wantErr []error
}

// chaosMatrix covers the five required fault types. Hard faults appear at
// two byte offsets each — during the handshake and mid-OT — so both the
// session-setup and OT paths are exercised.
func chaosMatrix() []chaosCase {
	hardTimeout := []error{transport.ErrTimeout}
	injected := []error{faultnet.ErrInjected}
	reset := []error{faultnet.ErrReset, faultnet.ErrClosed}
	return []chaosCase{
		{name: "latency", profile: faultnet.Profile{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Seed: 42}, wantOK: true},
		{name: "partial-writes", profile: faultnet.Profile{ChunkWrites: 7}, wantOK: true},
		{name: "latency+partial-writes", profile: faultnet.Profile{Latency: time.Millisecond, ChunkWrites: 64, Seed: 7}, wantOK: true},
		// Handshake offsets land inside the ~100-byte Hello and spec reply;
		// mid-OT offsets sit past it, inside the ~4KB similarity query
		// exchange and inside the classification session's IKNP base phase
		// (measured on x25519, whose base choice alone is over 4 KB).
		{name: "write-error-handshake", profile: faultnet.Profile{FailWriteAfter: 16}, wantErr: injected},
		{name: "write-error-mid-ot", profile: faultnet.Profile{FailWriteAfter: 1024}, wantErr: injected},
		{name: "read-error-handshake", profile: faultnet.Profile{FailReadAfter: 64}, wantErr: injected},
		{name: "read-error-mid-ot", profile: faultnet.Profile{FailReadAfter: 1200}, wantErr: injected},
		{name: "reset-handshake", profile: faultnet.Profile{ResetAfter: 48}, wantErr: reset},
		{name: "reset-mid-ot", profile: faultnet.Profile{ResetAfter: 1800}, wantErr: reset},
		{name: "stall-handshake", profile: faultnet.Profile{StallAfter: 64}, wantErr: hardTimeout},
		{name: "stall-mid-ot", profile: faultnet.Profile{StallAfter: 2200}, wantErr: hardTimeout},
	}
}

// chaosOpts keeps fault runs fast: short message deadlines so stalls
// resolve in milliseconds, not the 2-minute production default.
var chaosOpts = transport.Options{MessageDeadline: 500 * time.Millisecond}

// chaosCodecs is the framing level of the fault matrix. Binary is the only
// framing a session speaks; its subtests pin Options.WireCodec the way
// older callers still do, so the deprecated option is held to the same
// fault contract as the default.
var chaosCodecs = []string{transport.CodecBinary} //nolint:staticcheck // the deprecated surface is under test

// chaosOptsFor pins the session codec on top of the fast-fault options.
func chaosOptsFor(codec string) transport.Options {
	opts := chaosOpts
	opts.WireCodec = codec //nolint:staticcheck // the deprecated surface is under test
	return opts
}

// runChaos wraps the client side of a net.Pipe in the case's fault
// profile, serves the other side, runs fn as the client, and enforces the
// no-hang budget on both the client call and server teardown.
func runChaos(t *testing.T, tc chaosCase, srv *transport.Server, fn func(rw *faultnet.Conn) error) {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	wrapped := faultnet.Wrap(clientSide, tc.profile)
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		srv.ServeConn(serverSide)
	}()

	clientDone := make(chan error, 1)
	start := time.Now()
	go func() { clientDone <- fn(wrapped) }()

	var err error
	select {
	case err = <-clientDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: client round trip hung", tc.name)
	}
	elapsed := time.Since(start)
	_ = wrapped.Close()

	if tc.wantOK {
		if err != nil {
			t.Fatalf("%s: benign fault broke the protocol: %v", tc.name, err)
		}
	} else {
		if err == nil {
			t.Fatalf("%s: hard fault produced no error", tc.name)
		}
		matched := false
		for _, want := range tc.wantErr {
			if errors.Is(err, want) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("%s: error %v (type %T) matches none of the expected sentinels %v", tc.name, err, err, tc.wantErr)
		}
		// A hard fault must resolve within a small multiple of the
		// message deadline, never by exhausting the watchdog.
		if elapsed > 10*time.Second {
			t.Fatalf("%s: fault took %v to surface", tc.name, elapsed)
		}
	}

	select {
	case <-serverDone:
	case <-time.After(15 * time.Second):
		t.Fatalf("%s: server session did not end", tc.name)
	}
}

// TestChaosClassify drives the full classification round trip through the
// fault matrix.
func TestChaosClassify(t *testing.T) {
	model, test := trainLinear(t, 71)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sample := test.X[0]
	want, err := model.Classify(sample)
	if err != nil {
		t.Fatal(err)
	}
	d, err := model.Decision(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d) < 1e-6 {
		t.Skip("margin sample; pick another seed")
	}
	for _, codec := range chaosCodecs {
		t.Run(codec, func(t *testing.T) {
			for _, tc := range chaosMatrix() {
				t.Run(tc.name, func(t *testing.T) {
					srv := quietServer(t, trainer)
					srv.MessageDeadline = chaosOpts.MessageDeadline
					runChaos(t, tc, srv, func(rw *faultnet.Conn) error {
						cc, err := transport.NewFastClassifyClientContext(t.Context(), rw, chaosOptsFor(codec), rand.Reader)
						if err != nil {
							return err
						}
						got, err := cc.ClassifyContext(t.Context(), sample)
						if err != nil {
							return err
						}
						if got != want {
							t.Errorf("silent wrong answer: got %d, want %d", got, want)
						}
						return cc.Close()
					})
				})
			}
		})
	}
}

// TestChaosSimilarity drives the three-round linear similarity protocol
// through the fault matrix.
func TestChaosSimilarity(t *testing.T) {
	modelA, _ := trainLinear(t, 72)
	modelB, _ := trainLinear(t, 73)
	wA, err := modelA.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	wB, err := modelB.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	want, err := similarity.EvaluateLinear(wA, modelA.Bias, wB, modelB.Bias, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := classify.NewTrainer(modelA, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range chaosCodecs {
		t.Run(codec, func(t *testing.T) {
			for _, tc := range chaosMatrix() {
				t.Run(tc.name, func(t *testing.T) {
					srv := quietServer(t, trainer)
					srv.MessageDeadline = chaosOpts.MessageDeadline
					srv.EnableSimilarity(wA, modelA.Bias, similarity.Params{})
					runChaos(t, tc, srv, func(rw *faultnet.Conn) error {
						got, err := transport.EvaluateSimilarityContext(t.Context(), rw, wB, modelB.Bias, chaosOptsFor(codec), rand.Reader)
						if err != nil {
							return err
						}
						if math.Abs(got.TSquared-want.TSquared) > 1e-4*(1+math.Abs(want.TSquared)) {
							t.Errorf("silent wrong answer: T² %g, want %g", got.TSquared, want.TSquared)
						}
						return nil
					})
				})
			}
		})
	}
}

// TestChaosServerSideFaults wraps the *server's* end of the pipe, so the
// trainer experiences the misbehaving network: its session goroutine must
// still terminate within the deadline budget and the client must see a
// clean error (or a correct result for benign faults).
func TestChaosServerSideFaults(t *testing.T) {
	model, test := trainLinear(t, 74)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sample := test.X[1]
	for _, codec := range chaosCodecs {
		t.Run(codec, func(t *testing.T) {
			for _, tc := range chaosMatrix() {
				t.Run(tc.name, func(t *testing.T) {
					srv := quietServer(t, trainer)
					srv.MessageDeadline = chaosOpts.MessageDeadline

					serverSide, clientSide := net.Pipe()
					wrapped := faultnet.Wrap(serverSide, tc.profile)
					serverDone := make(chan struct{})
					go func() {
						defer close(serverDone)
						srv.ServeConn(wrapped)
					}()

					clientDone := make(chan error, 1)
					go func() {
						cc, err := transport.NewFastClassifyClientContext(t.Context(), clientSide, chaosOptsFor(codec), rand.Reader)
						if err != nil {
							clientDone <- err
							return
						}
						if _, err := cc.ClassifyContext(t.Context(), sample); err != nil {
							clientDone <- err
							return
						}
						clientDone <- cc.Close()
					}()

					select {
					case err := <-clientDone:
						if tc.wantOK && err != nil {
							t.Fatalf("benign server-side fault broke the client: %v", err)
						}
						if !tc.wantOK && err == nil {
							t.Fatal("hard server-side fault produced no client error")
						}
					case <-time.After(30 * time.Second):
						t.Fatal("client hung against a faulty server")
					}
					_ = clientSide.Close()
					select {
					case <-serverDone:
					case <-time.After(15 * time.Second):
						t.Fatal("server session did not end")
					}
				})
			}
		})
	}
}

// meterConn counts bytes in each direction, so chaos offsets inside a
// session's queries can be measured rather than hardcoded: the IKNP base
// handshake before them is tens of kilobytes and its size varies with
// group-element encodings.
type meterConn struct {
	net.Conn
	wrote atomic.Int64
	read  atomic.Int64
}

func (m *meterConn) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	m.wrote.Add(int64(n))
	return n, err
}

func (m *meterConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.read.Add(int64(n))
	return n, err
}

// measureFastBatch runs one clean fast-session batch and reports the
// client's written/read byte counts at the end of the base handshake and
// at the end of the batch exchange.
func measureFastBatch(t *testing.T, trainer *classify.Trainer, samples [][]float64) (hsWrote, hsRead, totalWrote, totalRead int64) {
	t.Helper()
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	m := &meterConn{Conn: clientSide}
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClientContext(t.Context(), m, chaosOpts, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hsWrote, hsRead = m.wrote.Load(), m.read.Load()
	if _, err := fc.ClassifyBatchContext(t.Context(), samples); err != nil {
		t.Fatal(err)
	}
	totalWrote, totalRead = m.wrote.Load(), m.read.Load()
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-serverDone:
	case <-time.After(15 * time.Second):
		t.Fatal("measuring run: server session did not end")
	}
	return hsWrote, hsRead, totalWrote, totalRead
}

// TestChaosClassifyFastBatch drives the fast-session batch round trip
// through the fault matrix. Fault offsets are derived from a measured
// clean run: "handshake" faults land inside the IKNP base phase,
// "mid-batch" faults land inside the batch request/response exchange. A
// mid-batch hard fault must free the server's session slot and surface a
// typed error.
func TestChaosClassifyFastBatch(t *testing.T) {
	model, test := trainLinear(t, 75)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:4]
	want, err := classify.ClassifyBatch(trainer, samples, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hsWrote, hsRead, totalWrote, totalRead := measureFastBatch(t, trainer, samples)
	// The client's base phase writes at least one constraint and R, and
	// reads κ public keys.
	if hsWrote < 2*32 || hsRead < 128*32 || totalWrote <= hsWrote || totalRead <= hsRead {
		t.Fatalf("implausible measurement: hs=(%d,%d) total=(%d,%d)", hsWrote, hsRead, totalWrote, totalRead)
	}
	midWrote := hsWrote + (totalWrote-hsWrote)/2
	midRead := hsRead + (totalRead-hsRead)/2

	hardTimeout := []error{transport.ErrTimeout}
	injected := []error{faultnet.ErrInjected}
	reset := []error{faultnet.ErrReset, faultnet.ErrClosed}
	cases := []chaosCase{
		{name: "latency", profile: faultnet.Profile{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Seed: 42}, wantOK: true},
		{name: "partial-writes", profile: faultnet.Profile{ChunkWrites: 7}, wantOK: true},
		{name: "write-error-handshake", profile: faultnet.Profile{FailWriteAfter: hsWrote / 2}, wantErr: injected},
		{name: "write-error-mid-batch", profile: faultnet.Profile{FailWriteAfter: midWrote}, wantErr: injected},
		{name: "read-error-handshake", profile: faultnet.Profile{FailReadAfter: hsRead / 2}, wantErr: injected},
		{name: "read-error-mid-batch", profile: faultnet.Profile{FailReadAfter: midRead}, wantErr: injected},
		{name: "reset-handshake", profile: faultnet.Profile{ResetAfter: hsWrote / 2}, wantErr: reset},
		{name: "reset-mid-batch", profile: faultnet.Profile{ResetAfter: midWrote}, wantErr: reset},
		{name: "stall-handshake", profile: faultnet.Profile{StallAfter: hsWrote / 2}, wantErr: hardTimeout},
		{name: "stall-mid-batch", profile: faultnet.Profile{StallAfter: midWrote}, wantErr: hardTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := quietServer(t, trainer)
			srv.MessageDeadline = chaosOpts.MessageDeadline
			runChaos(t, tc, srv, func(rw *faultnet.Conn) error {
				fc, err := transport.NewFastClassifyClientContext(t.Context(), rw, chaosOpts, rand.Reader)
				if err != nil {
					return err
				}
				got, err := fc.ClassifyBatchContext(t.Context(), samples)
				if err != nil {
					return err
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("silent wrong answer: sample %d got %d, want %d", i, got[i], want[i])
					}
				}
				return fc.Close()
			})
			// Hard or benign, the session must be fully deregistered once
			// the server goroutine ends — a mid-batch fault must not leak
			// the slot (runChaos already joined serverDone).
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("%d session slots still held", n)
			}
		})
	}
}

// TestChaosClassifyPipelined drives the pipelined client (several batches
// in flight) through the mid-batch hard faults: typed errors, no hangs,
// freed session slots.
func TestChaosClassifyPipelined(t *testing.T) {
	model, test := trainLinear(t, 76)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:12]
	want, err := classify.ClassifyBatch(trainer, samples, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hsWrote, hsRead, totalWrote, totalRead := measureFastBatch(t, trainer, samples[:3])
	_ = hsRead
	midWrote := hsWrote + (totalWrote - hsWrote)
	midRead := totalRead

	injected := []error{faultnet.ErrInjected}
	reset := []error{faultnet.ErrReset, faultnet.ErrClosed}
	cases := []chaosCase{
		{name: "latency", profile: faultnet.Profile{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 7}, wantOK: true},
		{name: "write-error-mid-pipeline", profile: faultnet.Profile{FailWriteAfter: midWrote}, wantErr: injected},
		{name: "read-error-mid-pipeline", profile: faultnet.Profile{FailReadAfter: midRead}, wantErr: injected},
		{name: "reset-mid-pipeline", profile: faultnet.Profile{ResetAfter: midWrote}, wantErr: reset},
		{name: "stall-mid-pipeline", profile: faultnet.Profile{StallAfter: midWrote}, wantErr: []error{transport.ErrTimeout}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := quietServer(t, trainer)
			srv.MessageDeadline = chaosOpts.MessageDeadline
			runChaos(t, tc, srv, func(rw *faultnet.Conn) error {
				fc, err := transport.NewFastClassifyClientContext(t.Context(), rw, chaosOpts, rand.Reader)
				if err != nil {
					return err
				}
				got, err := fc.ClassifyPipelined(t.Context(), samples, 3, 2)
				if err != nil {
					return err
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("silent wrong answer: sample %d got %d, want %d", i, got[i], want[i])
					}
				}
				return fc.Close()
			})
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("%d session slots still held", n)
			}
		})
	}
}
