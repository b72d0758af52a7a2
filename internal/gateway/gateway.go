// Package gateway is the fleet's front door: it shards client sessions
// across N trainer replicas. The protocol is session-oriented — one
// connection carries one negotiated session (handshake, then any number
// of pipelined queries) — so affinity is structural: the gateway picks a
// replica per accepted connection and splices raw bytes both ways for the
// connection's lifetime. The replica sees the pristine client byte stream
// (the gateway never re-frames, so golden transcripts and wire
// determinism are untouched), and a session can never straddle two
// replicas.
//
// On top of the splice the gateway adds fleet mechanics: least-loaded
// routing over healthy replicas, dial failover (a replica that refuses a
// connection is marked down and the session lands on the next choice),
// background health probing that revives recovered replicas, load
// shedding with the typed ErrFleetBusy answer, and a graceful Shutdown
// that drains spliced sessions under a budget.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrFleetBusy is reported to clients shed at the gateway's MaxSessions
// cap. It crosses the wire as a transport error frame; clients detect it
// with IsFleetBusy.
var ErrFleetBusy = errors.New("gateway: fleet at capacity")

// ErrNoReplicas is reported to clients when no healthy replica accepted
// the session (all down or failing to dial).
var ErrNoReplicas = errors.New("gateway: no healthy replicas")

// ErrShuttingDown is reported to clients that connect while the gateway
// drains.
var ErrShuttingDown = errors.New("gateway: shutting down")

// helloDeadline bounds the gateway's pre-routing exchanges with a client:
// the Hello peek and the rejection answers. A variable so tests can
// shorten it.
var helloDeadline = 5 * time.Second

// IsFleetBusy reports whether err is ErrFleetBusy, locally or as the
// remote form a shed client receives (remote errors cross as text inside
// an error frame, so sentinel identity does not survive the wire).
func IsFleetBusy(err error) bool {
	return errors.Is(err, ErrFleetBusy) ||
		(errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), ErrFleetBusy.Error()))
}

// IsNoReplicas reports whether err is ErrNoReplicas, locally or in its
// remote form.
func IsNoReplicas(err error) bool {
	return errors.Is(err, ErrNoReplicas) ||
		(errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), ErrNoReplicas.Error()))
}

// IsShuttingDown reports whether err is ErrShuttingDown, locally or in
// its remote form.
func IsShuttingDown(err error) bool {
	return errors.Is(err, ErrShuttingDown) ||
		(errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), ErrShuttingDown.Error()))
}

// Dialer opens a connection to a replica address. The default dials TCP
// with transport's retry policy; in-memory fleets (tests, the 10k soak)
// plug a memnet dialer in instead.
type Dialer func(ctx context.Context, addr string) (net.Conn, error)

// Options configures a Gateway.
type Options struct {
	// MaxSessions caps concurrently spliced sessions; connections beyond
	// the cap are shed with ErrFleetBusy. Zero means unlimited.
	MaxSessions int
	// HealthInterval is the pause between health-probe sweeps (default
	// 500ms). Probes dial each replica and immediately close.
	HealthInterval time.Duration
	// DialTimeout bounds each replica dial attempt (default 2s). Routing
	// makes one attempt per replica and fails over instead of retrying in
	// place, so a dead replica costs one timeout, not a backoff ladder.
	DialTimeout time.Duration
	// Dial overrides the replica dialer (default: TCP via transport).
	Dial Dialer
	// Logf logs fleet events (default log.Printf; set to a no-op for
	// quiet operation).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// replica is one trainer endpoint's routing state.
type replica struct {
	index  int
	addr   string
	down   atomic.Bool
	active atomic.Int64
	routed atomic.Int64
	// affinity counts sessions that landed here because they presented a
	// ticket this replica minted.
	affinity atomic.Int64
	// mintID is the replica's ticket-minting identity as learned by the
	// health prober (stored as a string for atomicity; empty = unknown).
	mintID atomic.Value
}

// setMintID publishes the prober-learned minting identity.
func (r *replica) setMintID(id []byte) { r.mintID.Store(string(id)) }

// mintIDEquals reports whether the replica's known minting identity
// matches id (false while unknown).
func (r *replica) mintIDEquals(id []byte) bool {
	known, _ := r.mintID.Load().(string)
	return known != "" && known == string(id)
}

// Gateway shards client sessions across trainer replicas.
type Gateway struct {
	opts     Options
	replicas []*replica

	routed         atomic.Int64
	shed           atomic.Int64
	failovers      atomic.Int64
	drained        atomic.Int64
	affinityHits   atomic.Int64
	affinityMisses atomic.Int64

	mu       sync.Mutex
	wg       sync.WaitGroup
	ln       net.Listener
	closed   bool
	sessions map[net.Conn]struct{}
	stopCh   chan struct{}
}

// New builds a gateway over the given replica addresses.
func New(replicaAddrs []string, opts Options) (*Gateway, error) {
	if len(replicaAddrs) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	opts = opts.withDefaults()
	if opts.Dial == nil {
		dialOpts := transport.Options{DialTimeout: opts.DialTimeout, MaxAttempts: 1}
		opts.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return transport.DialContext(ctx, addr, dialOpts)
		}
	}
	g := &Gateway{
		opts:     opts,
		sessions: make(map[net.Conn]struct{}),
		stopCh:   make(chan struct{}),
	}
	for i, addr := range replicaAddrs {
		g.replicas = append(g.replicas, &replica{index: i, addr: addr})
	}
	g.publishHealth()
	go g.probeLoop()
	return g, nil
}

func (g *Gateway) logf(format string, args ...any) { g.opts.Logf(format, args...) }

// Serve accepts client sessions on the listener until Shutdown. It
// returns net.ErrClosed after a clean shutdown.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return net.ErrClosed
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go g.ServeConn(conn)
	}
}

// ServeConn routes one accepted client connection (exported so in-memory
// fleets can feed pipe connections in without a listener).
//
// The gateway peeks the client's Hello before picking a replica: a
// session presenting a resumption ticket is steered to the replica whose
// mint ID (learned by the health prober) matches the ticket's cleartext
// header, since only the minting process holds the sealing key. Every
// byte the peek consumes is recorded and replayed to the chosen replica
// verbatim, so the replica still sees the pristine client stream and the
// splice semantics are unchanged. A ticket whose minter is unknown,
// or down routes least-loaded as before — the receiving
// replica declines the foreign ticket into a full handshake. The peek runs
// under helloDeadline, so a client that connects and says nothing gives
// its session slot back instead of holding it.
func (g *Gateway) ServeConn(client net.Conn) {
	if err := g.register(client); err != nil {
		g.reject(client, err)
		return
	}
	defer g.deregister(client)
	rec := &recordingReader{r: client}
	var mintID []byte
	// Best effort: a connection that refuses deadlines is peeked without
	// one.
	_ = client.SetDeadline(time.Now().Add(helloDeadline))
	hello, err := transport.PeekHello(rec)
	_ = client.SetDeadline(time.Time{})
	switch {
	case err == nil:
		if id, ok := transport.TicketMintID(hello.ResumeTicket); ok {
			mintID = id
		}
	case errors.Is(err, transport.ErrTimeout):
		g.logf("gateway: peek hello: %v", err)
		_ = client.Close()
		return
	default:
		// An unreadable Hello still routes: the replica owns protocol
		// errors, the gateway only moves bytes.
		g.logf("gateway: peek hello: %v", err)
	}
	upstream, rep, err := g.dialReplica(context.Background(), mintID)
	if err != nil {
		g.rejectHelloConsumed(client, err)
		return
	}
	if mintID != nil {
		if rep.mintIDEquals(mintID) {
			rep.affinity.Add(1)
			g.affinityHits.Add(1)
			obs.Add(obs.CtrGatewayResumeAffinity, 1)
		} else {
			g.affinityMisses.Add(1)
			obs.Add(obs.CtrGatewayResumeMisses, 1)
		}
	}
	rep.routed.Add(1)
	g.routed.Add(1)
	obs.Add(obs.CtrGatewayRouted, 1)
	obs.Set(obs.GaugeReplicaSessions(rep.index), rep.active.Load())
	// Replay what the peek consumed before splicing live traffic.
	if _, err := upstream.Write(rec.recorded()); err != nil {
		g.logf("gateway: replay hello: %v", err)
		_ = client.Close()
		_ = upstream.Close()
	} else {
		g.splice(client, upstream)
	}
	rep.active.Add(-1)
	obs.Set(obs.GaugeReplicaSessions(rep.index), rep.active.Load())
}

// recordingReader captures every byte read from the client so the Hello
// peek can be replayed to the chosen replica. PeekHello's exact reads and
// its payload bound keep the recording to one Hello frame at most.
type recordingReader struct {
	r   io.Reader
	buf []byte
}

func (rr *recordingReader) Read(p []byte) (int, error) {
	n, err := rr.r.Read(p)
	if n > 0 {
		rr.buf = append(rr.buf, p[:n]...)
	}
	return n, err
}

func (rr *recordingReader) recorded() []byte { return rr.buf }

// register admits a session under the drain flag and the shed cap.
func (g *Gateway) register(client net.Conn) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrShuttingDown
	}
	if g.opts.MaxSessions > 0 && len(g.sessions) >= g.opts.MaxSessions {
		g.shed.Add(1)
		obs.Add(obs.CtrGatewayShed, 1)
		return ErrFleetBusy
	}
	g.sessions[client] = struct{}{}
	g.wg.Add(1)
	obs.Set(obs.GaugeGatewaySessions, int64(len(g.sessions)))
	return nil
}

func (g *Gateway) deregister(client net.Conn) {
	g.mu.Lock()
	delete(g.sessions, client)
	obs.Set(obs.GaugeGatewaySessions, int64(len(g.sessions)))
	g.mu.Unlock()
	g.wg.Done()
}

// reject answers the client's session attempt with a typed error on the
// protocol's error frame: the Hello is drained first (over synchronous
// pipes, writing before reading would deadlock both sides), the error
// goes out, and the client's handshake surfaces it as ErrRemote text
// matched by IsFleetBusy/IsNoReplicas.
func (g *Gateway) reject(client net.Conn, cause error) {
	g.logf("gateway: reject session: %v", cause)
	conn := transport.NewConn(client)
	conn.SetMessageDeadline(helloDeadline)
	_, _ = transport.Recv[*transport.Hello](conn)
	_ = conn.SendErr(cause)
	_ = conn.Close()
}

// rejectHelloConsumed is reject for the post-peek path: the client's
// Hello has already been read off the stream, so only the error goes out.
func (g *Gateway) rejectHelloConsumed(client net.Conn, cause error) {
	g.logf("gateway: reject session: %v", cause)
	conn := transport.NewConn(client)
	conn.SetMessageDeadline(helloDeadline)
	_ = conn.SendErr(cause)
	_ = conn.Close()
}

// dialReplica picks a replica and dials it, failing over down the
// preference order (least active sessions first, among healthy
// replicas; a matching ticket mint moves its replica to the front). A
// replica whose dial fails is marked down on the spot — the prober
// revives it — and any session that lands past its first choice counts
// as a failover.
func (g *Gateway) dialReplica(ctx context.Context, mintID []byte) (net.Conn, *replica, error) {
	order := g.routeOrder()
	if len(order) == 0 {
		obs.Add(obs.CtrGatewayUnrouteable, 1)
		return nil, nil, ErrNoReplicas
	}
	if len(mintID) > 0 {
		// Ticket affinity: prefer the minting replica, keeping the
		// least-loaded order behind it as the transparent fallback chain
		// (the fallback replica declines the ticket into a full handshake).
		for i, rep := range order {
			if rep.mintIDEquals(mintID) {
				copy(order[1:i+1], order[:i])
				order[0] = rep
				break
			}
		}
	}
	for i, rep := range order {
		// Reserve the session slot before dialing: concurrent arrivals
		// must see each other's placements, or they all pick the same
		// "least-loaded" replica and pile onto it.
		rep.active.Add(1)
		dialCtx, cancel := context.WithTimeout(ctx, g.opts.DialTimeout)
		conn, err := g.opts.Dial(dialCtx, rep.addr)
		cancel()
		if err == nil {
			if i > 0 {
				g.failovers.Add(1)
				obs.Add(obs.CtrGatewayFailovers, 1)
			}
			return conn, rep, nil
		}
		rep.active.Add(-1)
		g.markDown(rep, err)
	}
	obs.Add(obs.CtrGatewayUnrouteable, 1)
	return nil, nil, fmt.Errorf("%w (%d tried)", ErrNoReplicas, len(order))
}

// routeOrder returns the healthy replicas sorted by
// current load (ties keep configuration order, which spreads equally
// loaded replicas by arrival since load changes between calls).
func (g *Gateway) routeOrder() []*replica {
	order := make([]*replica, 0, len(g.replicas))
	for _, rep := range g.replicas {
		if !rep.down.Load() {
			order = append(order, rep)
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].active.Load() < order[j-1].active.Load(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

func (g *Gateway) markDown(rep *replica, cause error) {
	if !rep.down.Swap(true) {
		obs.Add(obs.CtrGatewayReplicaDown, 1)
		g.logf("gateway: replica %s down: %v", rep.addr, cause)
		g.publishHealth()
	}
}

func (g *Gateway) markUp(rep *replica) {
	if rep.down.Swap(false) {
		g.logf("gateway: replica %s recovered", rep.addr)
		g.publishHealth()
	}
}

// publishHealth refreshes the healthy-replica gauge.
func (g *Gateway) publishHealth() {
	healthy := int64(0)
	for _, rep := range g.replicas {
		if !rep.down.Load() {
			healthy++
		}
	}
	obs.Set(obs.GaugeGatewayHealthy, healthy)
}

// probeLoop sweeps the replicas on the health interval: each probe dials
// and runs the cheap "resume-info" whoami to learn the replica's ticket
// mint identity. Probing runs for down replicas (to revive them) and up
// ones (to catch silent deaths before a client session pays the dial
// timeout). Every replica mints tickets, so a whoami answered with an
// error frame means the peer has no mint identity to give: its ticket
// sealer failed to initialise (the entropy source erred), or it does
// not serve "resume-info" at all. Such a replica still counts alive; it
// just never attracts ticket affinity. The first sweep runs immediately
// so mint identities are known before the first resuming redial, not one
// interval in.
func (g *Gateway) probeLoop() {
	ticker := time.NewTicker(g.opts.HealthInterval)
	defer ticker.Stop()
	for {
		g.probeSweep()
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
		}
	}
}

// probeSweep probes every replica once.
func (g *Gateway) probeSweep() {
	for _, rep := range g.replicas {
		ctx, cancel := context.WithTimeout(context.Background(), g.opts.DialTimeout)
		conn, err := g.opts.Dial(ctx, rep.addr)
		cancel()
		if err != nil {
			g.markDown(rep, err)
			continue
		}
		g.probeMintID(rep, conn)
		g.markUp(rep)
	}
}

// probeMintID runs the resume-info exchange on an established probe
// connection, updating the replica's known mint identity. It owns the
// connection and closes it.
func (g *Gateway) probeMintID(rep *replica, conn net.Conn) {
	tc := transport.NewConn(conn)
	tc.SetMessageDeadline(g.opts.DialTimeout)
	defer func() { _ = tc.Close() }()
	if err := tc.Send(&transport.Hello{Service: "resume-info"}); err != nil {
		return
	}
	info, err := transport.Recv[*transport.ResumeInfo](tc)
	if err != nil {
		// A definitive "no" (no ticket sealer, no such service) clears
		// any stale identity; transport noise keeps the last one.
		if errors.Is(err, transport.ErrRemote) {
			rep.setMintID(nil)
		}
		return
	}
	rep.setMintID(info.MintID)
}

// splice copies bytes between the client and the replica until either
// side ends. When one direction finishes, both connections are closed to
// unblock the other copier: the protocol ends sessions by closing, so
// half-open lingering only pins resources.
func (g *Gateway) splice(client, upstream net.Conn) {
	var once sync.Once
	closeBoth := func() {
		_ = client.Close()
		_ = upstream.Close()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	copyDir := func(dst, src net.Conn) {
		defer wg.Done()
		buf := make([]byte, 16<<10)
		_, _ = io.CopyBuffer(dst, src, buf)
		once.Do(closeBoth)
	}
	go copyDir(upstream, client)
	copyDir(client, upstream)
	wg.Wait()
}

// ActiveSessions reports the number of spliced sessions.
func (g *Gateway) ActiveSessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// Close stops accepting and waits for spliced sessions to end, with no
// bound on the wait.
func (g *Gateway) Close() error { return g.Shutdown(context.Background()) }

// Shutdown gracefully stops the gateway: it closes the listener, sheds
// new sessions with ErrShuttingDown, stops the health prober, and waits
// for spliced sessions to end. If ctx expires first the remaining
// sessions are force-closed and ctx.Err() is returned.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	alreadyClosed := g.closed
	g.closed = true
	ln := g.ln
	g.mu.Unlock()
	if !alreadyClosed {
		close(g.stopCh)
	}
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
		g.mu.Lock()
		n := int64(len(g.sessions))
		g.drained.Add(n)
		obs.Add(obs.CtrGatewayDrained, n)
		for c := range g.sessions {
			_ = c.Close()
		}
		g.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ReplicaStats is one replica's routing snapshot.
type ReplicaStats struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Active  int64  `json:"active"`
	Routed  int64  `json:"routed"`
	// Affinity counts sessions that landed here via ticket affinity
	// (Routed - Affinity is this replica's full-handshake intake).
	Affinity int64 `json:"affinity"`
}

// Stats is a point-in-time fleet snapshot.
type Stats struct {
	Replicas  []ReplicaStats `json:"replicas"`
	Routed    int64          `json:"routed"`
	Shed      int64          `json:"shed"`
	Failovers int64          `json:"failovers"`
	Drained   int64          `json:"drained"`
	// AffinityHits / AffinityMisses split ticket-bearing sessions into
	// those steered to their minting replica and those routed elsewhere
	// (minting replica unknown, down, or failed to dial).
	AffinityHits   int64 `json:"affinity_hits"`
	AffinityMisses int64 `json:"affinity_misses"`
}

// Stats snapshots the gateway's routing state.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Routed:         g.routed.Load(),
		Shed:           g.shed.Load(),
		Failovers:      g.failovers.Load(),
		Drained:        g.drained.Load(),
		AffinityHits:   g.affinityHits.Load(),
		AffinityMisses: g.affinityMisses.Load(),
	}
	for _, rep := range g.replicas {
		s.Replicas = append(s.Replicas, ReplicaStats{
			Addr:     rep.addr,
			Healthy:  !rep.down.Load(),
			Active:   rep.active.Load(),
			Routed:   rep.routed.Load(),
			Affinity: rep.affinity.Load(),
		})
	}
	return s
}
