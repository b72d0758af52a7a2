package transport_test

// The OT pad over real sessions: every session runs the fixed-key AES
// pad whatever the deprecated Options.PadFunc says, and its wire bytes
// stay deterministic across GOMAXPROCS.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/parallel/paralleltest"
	"repro/internal/transport"
)

// runPadSession performs one fast batched session against a default
// server with the given client pad option and returns the labels.
func runPadSession(t *testing.T, clientPad string) (got, want []int) {
	t.Helper()
	model, test := trainLinear(t, 41)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	samples := test.X[:4]
	want = localReference(t, trainer, samples)
	srv := quietServer(t, trainer)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	opts := transport.Options{PadFunc: clientPad} //nolint:staticcheck // the deprecated surface is under test
	fc, err := transport.NewFastClassifyClientContext(t.Context(), clientSide, opts, newDetReader("pad-matrix-client"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err = fc.ClassifyBatch(samples); err != nil {
		t.Fatal(err)
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server session did not end")
	}
	return got, want
}

// TestPadNegotiationMatrix runs every value a client may still set in the
// deprecated Options.PadFunc, including the retired "sha256", against a
// default server. Each must classify correctly: a pad mismatch between
// the endpoints would turn every transfer to garbage, so correct labels
// prove both sides ran the one pad.
func TestPadNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name      string
		clientPad string
	}{
		{"legacy client, default server", ""},
		{"aes client, default server", "aes"},
		{"sha client, default server", "sha256"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := runPadSession(t, tc.clientPad)
			checkLabels(t, got, want, tc.name)
		})
	}
}

// runDeterministicAESBatch is runDeterministicBatch with the deprecated
// client pad option set to clientPad.
func runDeterministicAESBatch(t *testing.T, procs int, clientPad string, samples [][]float64) (sent, received []byte) {
	t.Helper()
	paralleltest.SetProcs(t, procs)
	model, _ := trainLinear(t, 43)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	srv.Rand = newDetReader("aes-batch-determinism-server")
	serverSide, clientSide := net.Pipe()
	rc := &recordingConn{Conn: clientSide}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	opts := transport.Options{PadFunc: clientPad} //nolint:staticcheck // the deprecated surface is under test
	fc, err := transport.NewFastClassifyClientContext(t.Context(), rc, opts, newDetReader("aes-batch-determinism-client"))
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

// TestBatchWireDeterminismAESPad: the serial-rng discipline must hold on
// the AES pad path — wire bytes bit-identical across GOMAXPROCS
// with fixed randomness — and the deprecated Options.PadFunc must be a
// no-op, so "aes" and "" give byte-identical transcripts.
func TestBatchWireDeterminismAESPad(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sessions")
	}
	_, test := trainLinear(t, 43)
	samples := test.X[:6]
	sent1, recv1 := runDeterministicAESBatch(t, 1, "aes", samples)
	sent4, recv4 := runDeterministicAESBatch(t, 4, "aes", samples)
	if !bytes.Equal(sent1, sent4) {
		t.Fatal("client wire bytes differ across GOMAXPROCS (AES pad)")
	}
	if !bytes.Equal(recv1, recv4) {
		t.Fatal("server wire bytes differ across GOMAXPROCS (AES pad fan-out leaked into randomness order)")
	}
	sentDefault, recvDefault := runDeterministicAESBatch(t, 1, "", samples)
	if !bytes.Equal(sent1, sentDefault) || !bytes.Equal(recv1, recvDefault) {
		t.Fatal(`Options.PadFunc "aes" and "" produced different transcripts`)
	}
}
