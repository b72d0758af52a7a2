package transport_test

// Batched and pipelined classification serving: correctness against the
// local plaintext-protocol reference, in-flight pipelining under -race,
// wire determinism, and cancellation semantics.

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/parallel/paralleltest"
	"repro/internal/transport"
)

// detReader is a deterministic byte stream (SHA-256 in counter mode) so
// two protocol runs can consume identical randomness.
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

// localReference computes the plaintext-protocol labels the batch paths
// must match exactly (classify.ClassifyBatch is the acceptance oracle).
func localReference(t *testing.T, trainer *classify.Trainer, samples [][]float64) []int {
	t.Helper()
	want, err := classify.ClassifyBatch(trainer, samples, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkLabels(t *testing.T, got, want []int, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d: got %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestClassifyBatchOverPipe sends back-to-back batches of different sizes
// on one session, checks that an empty batch fails on the client without
// disturbing the session, and that a single query still follows.
func TestClassifyBatchOverPipe(t *testing.T) {
	model, test := trainLinear(t, 21)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:8]
	want := localReference(t, trainer, samples)
	srv := quietServer(t, trainer)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	cc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cc.ClassifyBatch(samples[:5])
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, got, want[:5], "first batch")
	got, err = cc.ClassifyBatch(samples[5:])
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, got, want[5:], "second batch")
	if _, err := cc.ClassifyBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	// The refused batch never reached the wire: the session still serves.
	single, err := cc.Classify(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if single != want[0] {
		t.Fatalf("post-batch query: got %d, want %d", single, want[0])
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestClassifyFastBatchOverPipe drives the fast-path batch (single
// OT-extension round for all samples) against the local reference.
func TestClassifyFastBatchOverPipe(t *testing.T) {
	model, test := trainLinear(t, 22)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:10]
	want := localReference(t, trainer, samples)
	srv := quietServer(t, trainer)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ClassifyBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, got, want, "fast batch")
	// Mixed traffic: a single query between batches on the same session.
	single, err := fc.Classify(samples[1])
	if err != nil {
		t.Fatal(err)
	}
	if single != want[1] {
		t.Fatalf("post-batch query: got %d, want %d", single, want[1])
	}
	got2, err := fc.ClassifyBatch(samples[2:6])
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, got2, want[2:6], "second fast batch")
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestClassifyPipelined keeps several batches in flight on one connection
// (run under -race in the tier-1 gate: the reader/worker split on the
// server and the windowed client must be data-race free).
func TestClassifyPipelined(t *testing.T) {
	model, test := trainLinear(t, 23)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X
	want := localReference(t, trainer, samples)
	srv := quietServer(t, trainer)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ClassifyPipelined(context.Background(), samples, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, got, want, "pipelined")
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestClassifyPipelinedCanceled cancels mid-pipeline and requires a
// prompt ErrCanceled, a freed server session slot, and no hang.
func TestClassifyPipelinedCanceled(t *testing.T) {
	model, test := trainLinear(t, 24)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fc.ClassifyPipelined(ctx, test.X, 4, 3); !errors.Is(err, transport.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	_ = clientSide.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end after cancellation")
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still registered after cancellation", n)
	}
}

// recordingConn wraps a net.Conn and appends everything written and read
// to per-direction logs.
type recordingConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bytes.Buffer
	read  bytes.Buffer
}

func (rc *recordingConn) Write(p []byte) (int, error) {
	n, err := rc.Conn.Write(p)
	rc.mu.Lock()
	rc.wrote.Write(p[:n])
	rc.mu.Unlock()
	return n, err
}

func (rc *recordingConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	rc.mu.Lock()
	rc.read.Write(p[:n])
	rc.mu.Unlock()
	return n, err
}

// runDeterministicBatch performs one complete fast-batch exchange with
// fixed randomness on both sides and returns the client's wire bytes in
// each direction.
func runDeterministicBatch(t *testing.T, procs int, samples [][]float64) (sent, received []byte) {
	t.Helper()
	paralleltest.SetProcs(t, procs)
	model, _ := trainLinear(t, 25)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	srv.Rand = newDetReader("batch-determinism-server")
	serverSide, clientSide := net.Pipe()
	rc := &recordingConn{Conn: clientSide}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	fc, err := transport.NewFastClassifyClient(rc, newDetReader("batch-determinism-client"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.ClassifyBatch(samples); err != nil {
		t.Fatal(err)
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]byte(nil), rc.wrote.Bytes()...), append([]byte(nil), rc.read.Bytes()...)
}

// TestBatchWireDeterminism: with fixed randomness, batch-mode wire bytes
// must be bit-identical across runs and across GOMAXPROCS settings — the
// serial-rng discipline means worker fan-out touches only pure arithmetic.
func TestBatchWireDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sessions")
	}
	model, test := trainLinear(t, 25)
	_ = model
	samples := test.X[:6]
	sent1, recv1 := runDeterministicBatch(t, 1, samples)
	sent2, recv2 := runDeterministicBatch(t, 1, samples)
	sent4, recv4 := runDeterministicBatch(t, 4, samples)
	if !bytes.Equal(sent1, sent2) || !bytes.Equal(recv1, recv2) {
		t.Fatal("identical runs produced different wire bytes")
	}
	if !bytes.Equal(sent1, sent4) {
		t.Fatal("client wire bytes differ across GOMAXPROCS")
	}
	if !bytes.Equal(recv1, recv4) {
		t.Fatal("server wire bytes differ across GOMAXPROCS (worker fan-out leaked into randomness order)")
	}
}

// loopback is a single-goroutine in-memory stream: reads consume what was
// previously written.
type loopback struct{ bytes.Buffer }

func (l *loopback) Close() error { return nil }

// TestConnSendRecvAllocs pins the per-message allocation count of the
// pooled envelope/buffer path. The bound has headroom over the measured
// value (~10 allocs/op for a small payload) but fails loudly if per-conn
// state quietly becomes per-message again.
func TestConnSendRecvAllocs(t *testing.T) {
	rw := &loopback{}
	cc := transport.NewConn(rw)
	msg := &transport.Hello{Service: "alloc-probe"}
	// Warm up: the first message grows the connection's reusable
	// buffers; steady-state cost is what matters.
	if err := cc.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Recv[*transport.Hello](cc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cc.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := transport.Recv[*transport.Hello](cc); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 24
	if allocs > maxAllocs {
		t.Fatalf("send+recv costs %.1f allocs/op, want <= %d (per-message encoder or buffer construction crept back in)", allocs, maxAllocs)
	}
}

// BenchmarkConnSendRecv measures the steady-state cost of one
// send+receive through the typed envelope layer.
func BenchmarkConnSendRecv(b *testing.B) {
	rw := &loopback{}
	cc := transport.NewConn(rw)
	msg := &transport.Hello{Service: "bench"}
	if err := cc.Send(msg); err != nil {
		b.Fatal(err)
	}
	if _, err := transport.Recv[*transport.Hello](cc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.Recv[*transport.Hello](cc); err != nil {
			b.Fatal(err)
		}
	}
}

var _ io.ReadWriteCloser = (*loopback)(nil)
