package transport_test

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"testing"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/transport"
)

// withRegistry installs a fresh metrics registry for the test and
// restores the previous default recorder afterwards.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	g := obs.NewRegistry()
	prev := obs.SwapDefault(g)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return g
}

// TestClassifySessionMetrics locks in the acceptance criterion: one
// classification session over net.Pipe — the base phase, one one-sample
// Classify and one batch of two — must light up every protocol phase
// (mask, decoy, OT extension, interpolate), the wire-byte counters, and
// the server-side session accounting. The one-sample Classify is a batch
// of one, so the session counts two batches and three queries; the
// classify.roundtrip span belongs to the in-process one-shot path and is
// not expected here.
func TestClassifySessionMetrics(t *testing.T) {
	g := withRegistry(t)
	model, test := trainLinear(t, 21)
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

	cc, err := transport.NewFastClassifyClientContext(context.Background(), clientSide, transport.Options{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Classify(test.X[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.ClassifyBatchContext(context.Background(), test.X[1:3]); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	snap := g.Snapshot()
	for _, phase := range []string{
		obs.PhaseReceiverMask,
		obs.PhaseReceiverDecoy,
		obs.PhaseReceiverInterpolate,
		obs.PhaseSenderMask,
		obs.PhaseOTExtend,
		obs.PhaseOTTranspose,
		obs.PhaseOTPad,
		obs.PhaseClassifyBatch,
		obs.PhaseHandshakeFull,
	} {
		h, ok := snap.Histograms[phase]
		if !ok || h.Count == 0 {
			t.Errorf("phase %s not recorded", phase)
			continue
		}
		if h.Sum <= 0 {
			t.Errorf("phase %s recorded %dns total, want > 0", phase, h.Sum)
		}
	}
	for _, ctr := range []string{
		obs.CtrBytesIn, obs.CtrBytesOut, obs.CtrMsgsIn, obs.CtrMsgsOut,
		obs.CtrOTInstances, obs.CtrClassifyQueries, obs.CtrClassifyBatches,
		obs.CtrSessionsServed,
	} {
		if v := snap.Counters[ctr]; v <= 0 {
			t.Errorf("counter %s = %d, want > 0", ctr, v)
		}
	}
	if v := snap.Counters[obs.CtrClassifyBatches]; v != 2 {
		t.Errorf("counter %s = %d, want 2 (a batch of one and a batch of two)", obs.CtrClassifyBatches, v)
	}
	if v := snap.Counters[obs.CtrClassifyQueries]; v != 3 {
		t.Errorf("counter %s = %d, want 3", obs.CtrClassifyQueries, v)
	}
	// Both endpoints run in this process over a symmetric pipe, so the
	// envelope byte counts must balance.
	if in, out := snap.Counters[obs.CtrBytesIn], snap.Counters[obs.CtrBytesOut]; in != out {
		t.Errorf("bytes_in %d != bytes_out %d over loopback pipe", in, out)
	}
	if v := snap.Gauges[obs.GaugeSessionsActive]; v != 0 {
		t.Errorf("sessions_active = %d after session end, want 0", v)
	}
}

// TestSessionRejectionMetrics verifies the rejected-session counter and
// the active-session gauge under a MaxSessions cap.
func TestSessionRejectionMetrics(t *testing.T) {
	g := withRegistry(t)
	model, _ := trainLinear(t, 22)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	srv.MaxSessions = 1

	// First session occupies the only slot.
	serverSide1, clientSide1 := net.Pipe()
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		srv.ServeConn(serverSide1)
	}()
	cc, err := transport.NewFastClassifyClientContext(context.Background(), clientSide1, transport.Options{}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Snapshot().Gauges[obs.GaugeSessionsActive]; v != 1 {
		t.Errorf("sessions_active = %d with one session open, want 1", v)
	}

	// Second session must be rejected.
	serverSide2, clientSide2 := net.Pipe()
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		srv.ServeConn(serverSide2)
	}()
	_, err = transport.NewFastClassifyClientContext(context.Background(), clientSide2, transport.Options{}, rand.Reader)
	if !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("second session error = %v, want ErrRemote", err)
	}
	<-done2

	if v := g.Counter(obs.CtrSessionsRejected); v != 1 {
		t.Errorf("sessions_rejected = %d, want 1", v)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	<-done1
	if v := g.Snapshot().Gauges[obs.GaugeSessionsActive]; v != 0 {
		t.Errorf("sessions_active = %d after close, want 0", v)
	}
}
