package gateway

import (
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/memnet"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/transport"
)

// testFleet is a fully in-memory fleet: N replica servers (all fed by
// one registry) behind a gateway, plus local models to check private
// predictions against.
type testFleet struct {
	t        *testing.T
	network  *memnet.Network
	reg      *registry.Registry
	servers  []*transport.Server
	lns      []*memnet.Listener
	gw       *Gateway
	gwLn     *memnet.Listener
	samples  [][]float64
	model1   *svm.Model // boot model (version 1)
	model2   *svm.Model // inverted-labels model (hot-swap target)
	expected [2][]int   // local predictions under model1 / model2
}

func quiet(string, ...any) {}

// startTestFleet boots a fleet. Zero-valued gwOpts fields get test
// defaults; tests that need deterministic probe behavior pin
// HealthInterval themselves.
func startTestFleet(t *testing.T, replicas int, gwOpts Options) *testFleet {
	t.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model1, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	if err != nil {
		t.Fatal(err)
	}
	inverted := make([]int, len(train.Y))
	for i, v := range train.Y {
		inverted[i] = -v
	}
	model2, err := svm.Train(train.X, inverted, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	if err != nil {
		t.Fatal(err)
	}

	f := &testFleet{
		t:       t,
		network: memnet.NewNetwork(),
		reg:     registry.New(classify.Params{}),
		samples: test.X[:8],
		model1:  model1,
		model2:  model2,
	}
	for v, m := range []*svm.Model{model1, model2} {
		f.expected[v] = make([]int, len(f.samples))
		for i, s := range f.samples {
			label, err := m.Classify(s)
			if err != nil {
				t.Fatal(err)
			}
			f.expected[v][i] = label
		}
	}
	if _, err := f.reg.Publish(model1); err != nil {
		t.Fatal(err)
	}

	var replicaAddrs []string
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("replica-%d", i)
		ln := f.network.Listen(name)
		srv := transport.NewServerSource(f.reg)
		srv.Logf = nil
		go func() { _ = srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.lns = append(f.lns, ln)
		replicaAddrs = append(replicaAddrs, name)
	}

	if gwOpts.Dial == nil {
		gwOpts.Dial = f.network.Dial
	}
	if gwOpts.HealthInterval == 0 {
		gwOpts.HealthInterval = time.Hour // tests drive state transitions explicitly
	}
	if gwOpts.Logf == nil {
		gwOpts.Logf = quiet
	}
	gw, err := New(replicaAddrs, gwOpts)
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.gwLn = f.network.Listen("gateway")
	go func() { _ = gw.Serve(f.gwLn) }()

	// The prober's startup sweep runs concurrently with the test body;
	// wait for it to learn every replica's mint ID (all replicas are up
	// at this point) so tests that kill listeners or count failovers
	// aren't racing the initial probe.
	waitFor(t, 5*time.Second, func() bool {
		for _, rep := range gw.replicas {
			if known, _ := rep.mintID.Load().(string); known == "" {
				return false
			}
		}
		return true
	})

	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gw.Shutdown(ctx)
		for _, srv := range f.servers {
			_ = srv.Shutdown(ctx)
		}
	})
	return f
}

func (f *testFleet) dial(ctx context.Context, _ string) (net.Conn, error) {
	return f.network.Dial(ctx, "gateway")
}

func (f *testFleet) newClient() *FleetClient {
	return NewFleetClient(f.dial, "gateway", transport.Options{MessageDeadline: 10 * time.Second}, rand.Reader, 2)
}

// killReplica makes replica i unreachable and force-closes its in-flight
// sessions (process death, as the fleet sees it).
func (f *testFleet) killReplica(i int) {
	_ = f.lns[i].Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired budget: force-close stragglers immediately
	_ = f.servers[i].Shutdown(ctx)
}

func (f *testFleet) checkPredictions(labels []int, version int) error {
	want := f.expected[version]
	if len(labels) != len(want) {
		return fmt.Errorf("got %d labels, want %d", len(labels), len(want))
	}
	for i := range labels {
		if labels[i] != want[i] {
			return fmt.Errorf("label[%d] = %+d, want %+d (version %d)", i, labels[i], want[i], version+1)
		}
	}
	return nil
}

func TestGatewayRoutesAndBalances(t *testing.T) {
	f := startTestFleet(t, 2, Options{})
	// Four clients holding concurrent sessions: least-loaded routing must
	// spread them 2/2 across the replicas.
	clients := make([]*FleetClient, 4)
	for i := range clients {
		clients[i] = f.newClient()
		defer func(c *FleetClient) { _ = c.Close() }(clients[i])
		labels, err := clients[i].ClassifyBatch(context.Background(), f.samples)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if err := f.checkPredictions(labels, 0); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	stats := f.gw.Stats()
	if stats.Routed != 4 {
		t.Errorf("routed = %d, want 4", stats.Routed)
	}
	for i, r := range stats.Replicas {
		if r.Routed != 2 {
			t.Errorf("replica %d routed %d sessions, want 2 (%+v)", i, r.Routed, stats.Replicas)
		}
		if !r.Healthy || r.Draining {
			t.Errorf("replica %d state: %+v", i, r)
		}
	}
	if got := f.gw.ActiveSessions(); got != 4 {
		t.Errorf("active sessions = %d, want 4", got)
	}
}

func TestGatewayShedsWithTypedError(t *testing.T) {
	f := startTestFleet(t, 1, Options{MaxSessions: 1})
	first := f.newClient()
	defer func() { _ = first.Close() }()
	if _, err := first.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
		t.Fatalf("first session: %v", err)
	}

	second := f.newClient()
	defer func() { _ = second.Close() }()
	_, err := second.ClassifyBatch(context.Background(), f.samples[:1])
	if err == nil {
		t.Fatal("second session should be shed at MaxSessions=1")
	}
	if !IsFleetBusy(err) {
		t.Fatalf("shed error = %v, want IsFleetBusy", err)
	}
	if stats := f.gw.Stats(); stats.Shed != 1 {
		t.Errorf("shed = %d, want 1", stats.Shed)
	}

	// Capacity frees up when the first session ends.
	_ = first.Close()
	waitFor(t, time.Second, func() bool { return f.gw.ActiveSessions() == 0 })
	if _, err := second.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
		t.Fatalf("session after capacity freed: %v", err)
	}
}

func TestGatewayDialFailover(t *testing.T) {
	f := startTestFleet(t, 2, Options{DialTimeout: time.Second})
	// Replica 0 (the first routing choice at equal load) is unreachable:
	// the session must land on replica 1 with one failover, and replica 0
	// must be marked down.
	_ = f.lns[0].Close()

	c := f.newClient()
	defer func() { _ = c.Close() }()
	labels, err := c.ClassifyBatch(context.Background(), f.samples)
	if err != nil {
		t.Fatalf("failover session: %v", err)
	}
	if err := f.checkPredictions(labels, 0); err != nil {
		t.Fatal(err)
	}
	stats := f.gw.Stats()
	if stats.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", stats.Failovers)
	}
	if stats.Replicas[0].Healthy {
		t.Error("replica 0 should be marked down after failed dial")
	}
	if stats.Replicas[1].Routed != 1 {
		t.Errorf("replica 1 routed = %d, want 1", stats.Replicas[1].Routed)
	}
}

func TestGatewayNoReplicasTypedError(t *testing.T) {
	f := startTestFleet(t, 1, Options{DialTimeout: time.Second})
	_ = f.lns[0].Close()
	c := f.newClient()
	defer func() { _ = c.Close() }()
	_, err := c.ClassifyBatch(context.Background(), f.samples[:1])
	if err == nil || !IsNoReplicas(err) {
		t.Fatalf("err = %v, want IsNoReplicas", err)
	}
}

func TestGatewayDrainingReplicaSkipped(t *testing.T) {
	f := startTestFleet(t, 2, Options{})
	if err := f.gw.SetDraining("replica-0", true); err != nil {
		t.Fatal(err)
	}
	if err := f.gw.SetDraining("nope", true); err == nil {
		t.Fatal("unknown replica should error")
	}
	for i := 0; i < 2; i++ {
		c := f.newClient()
		defer func(c *FleetClient) { _ = c.Close() }(c)
		if _, err := c.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	stats := f.gw.Stats()
	if stats.Replicas[0].Routed != 0 || stats.Replicas[1].Routed != 2 {
		t.Fatalf("draining replica took sessions: %+v", stats.Replicas)
	}
	if stats.Failovers != 0 {
		t.Errorf("draining is not a failover, got %d", stats.Failovers)
	}

	// Re-admit: traffic flows back (least-loaded prefers the idle one).
	if err := f.gw.SetDraining("replica-0", false); err != nil {
		t.Fatal(err)
	}
	c := f.newClient()
	defer func() { _ = c.Close() }()
	if _, err := c.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
		t.Fatal(err)
	}
	if stats := f.gw.Stats(); stats.Replicas[0].Routed != 1 {
		t.Fatalf("re-admitted replica got no traffic: %+v", stats.Replicas)
	}
}

func TestGatewayHealthProbeRevivesReplica(t *testing.T) {
	f := startTestFleet(t, 2, Options{HealthInterval: 20 * time.Millisecond, DialTimeout: time.Second})
	_ = f.lns[0].Close()
	// The prober notices the death without any client traffic...
	waitFor(t, 2*time.Second, func() bool { return !f.gw.Stats().Replicas[0].Healthy })

	// ...and revives the replica when it comes back on the same address.
	ln := f.network.Listen("replica-0")
	f.lns[0] = ln
	go func() { _ = f.servers[0].Serve(ln) }()
	waitFor(t, 2*time.Second, func() bool { return f.gw.Stats().Replicas[0].Healthy })

	c := f.newClient()
	defer func() { _ = c.Close() }()
	if _, err := c.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
		t.Fatalf("session after revival: %v", err)
	}
}

func TestGatewayShutdownRejectsNewSessions(t *testing.T) {
	f := startTestFleet(t, 1, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f.gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// A connection handed to ServeConn after shutdown gets the typed
	// shutting-down answer on the protocol's error frame.
	client, server := net.Pipe()
	go f.gw.ServeConn(server)
	_, err := transport.NewFastClassifyClientContext(context.Background(), client, transport.Options{MessageDeadline: 2 * time.Second}, rand.Reader)
	if err == nil {
		t.Fatal("handshake should fail against a draining gateway")
	}
	if !IsShuttingDown(err) {
		t.Fatalf("err = %v, want shutting-down", err)
	}
}

func TestGatewayShutdownForceClosesStragglers(t *testing.T) {
	f := startTestFleet(t, 1, Options{})
	c := f.newClient()
	defer func() { _ = c.Close() }()
	if _, err := c.ClassifyBatch(context.Background(), f.samples[:1]); err != nil {
		t.Fatal(err)
	}
	// The session stays open; an already-expired budget must force-close
	// it rather than hang.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.gw.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("shutdown = %v, want context.Canceled", err)
	}
	if stats := f.gw.Stats(); stats.Drained != 1 {
		t.Errorf("drained = %d, want 1", stats.Drained)
	}
	if got := f.gw.ActiveSessions(); got != 0 {
		t.Errorf("active sessions after force shutdown = %d", got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
