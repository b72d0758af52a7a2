// Package obs is the protocol stack's zero-dependency observability
// layer: atomic counters, gauges, fixed-bucket histograms, and monotonic
// phase timers behind a pluggable Recorder interface.
//
// The default recorder is a no-op, and every instrumentation call site is
// written so the disabled path costs one atomic load and no allocations —
// the hot protocol paths (field arithmetic, OT exponentiations) pay
// ~nothing unless a process opts in with SetDefault(NewRegistry()).
//
// The phase taxonomy (the Phase* and Ctr*/Gauge* constants below) maps
// the paper's per-phase cost breakdown (§VI) onto the implementation:
// cover/mask generation and decoy assembly on the receiver (§IV-A.2),
// masked amplified evaluations on the sender (§IV-A.1), the batched
// Naor–Pinkas k-of-n OT (§III-B), Lagrange recovery (§IV-A.3), the
// similarity rounds (§V-B), and wire bytes counted at the transport
// envelope. DESIGN.md §9 documents the full name set.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Recorder receives metric events. Implementations must be safe for
// concurrent use; all methods must be cheap and non-blocking.
type Recorder interface {
	// Add increments the named counter.
	Add(name string, delta int64)
	// Observe records one histogram observation (nanoseconds for Phase*
	// names, raw magnitudes otherwise).
	Observe(name string, value int64)
	// Set stores the named gauge's current value.
	Set(name string, value int64)
}

// nop is the default do-nothing recorder.
type nop struct{}

func (nop) Add(string, int64)     {}
func (nop) Observe(string, int64) {}
func (nop) Set(string, int64)     {}

// Nop is the no-op recorder installed by default.
var Nop Recorder = nop{}

// defaultRec holds the process-wide recorder. An atomic.Value (not a
// plain interface variable) keeps Default() safe and cheap from any
// goroutine: one atomic load on every instrumentation call.
var defaultRec atomic.Value

func init() { defaultRec.Store(&holder{Nop}) }

// holder keeps the stored concrete type stable (atomic.Value requires a
// consistent dynamic type across Store calls).
type holder struct{ r Recorder }

// Default returns the process-wide recorder (Nop until SetDefault).
func Default() Recorder { return defaultRec.Load().(*holder).r }

// SetDefault installs the process-wide recorder. Passing nil restores
// Nop. Intended for process startup and test setup, not the hot path.
func SetDefault(r Recorder) {
	if r == nil {
		r = Nop
	}
	defaultRec.Store(&holder{r})
}

// SwapDefault installs r and returns the previous recorder, so tests and
// scoped measurements can restore it.
func SwapDefault(r Recorder) Recorder {
	prev := Default()
	SetDefault(r)
	return prev
}

// Enabled reports whether a real recorder is installed.
func Enabled() bool { return Default() != Nop }

// Add increments a counter on the default recorder.
func Add(name string, delta int64) { Default().Add(name, delta) }

// Observe records a histogram observation on the default recorder.
func Observe(name string, value int64) { Default().Observe(name, value) }

// Set stores a gauge value on the default recorder.
func Set(name string, value int64) { Default().Set(name, value) }

// Span is an in-flight phase timer. The zero Span (returned when
// recording is disabled) is inert: Start and End then perform no clock
// reads, no interface calls, and no allocations.
type Span struct {
	rec   Recorder
	name  string
	start time.Time
}

// Start opens a phase span against the default recorder. Call End (on
// the returned value) exactly once when the phase completes.
func Start(name string) Span {
	r := Default()
	if r == Nop {
		return Span{}
	}
	return Span{rec: r, name: name, start: time.Now()}
}

// End records the elapsed nanoseconds as a histogram observation. End on
// a zero Span is a no-op.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.Observe(s.name, int64(time.Since(s.start)))
}

// Phase names: histogram metrics in nanoseconds, one per protocol phase.
const (
	// PhaseReceiverMask times cover-polynomial (mask) generation on the
	// OMPE receiver (the g_i of §IV-A.2).
	PhaseReceiverMask = "ompe.receiver.mask_ns"
	// PhaseReceiverDecoy times evaluation-point sampling, decoy drawing,
	// genuine-position shuffling, and request assembly on the receiver.
	PhaseReceiverDecoy = "ompe.receiver.decoy_ns"
	// PhaseReceiverInterpolate times Lagrange recovery of B(0) (§IV-A.3).
	PhaseReceiverInterpolate = "ompe.receiver.interpolate_ns"
	// PhaseSenderMask times the sender's masked amplified evaluations
	// h(v_i) + amp·P(z_i) + shift across all M pairs (§IV-A.1).
	PhaseSenderMask = "ompe.sender.mask_ns"

	// PhaseOTSenderSetup times Naor–Pinkas batch-sender setup (the n−1
	// constraints the k instances share).
	PhaseOTSenderSetup = "ot.sender.setup_ns"
	// PhaseOTSenderRespond times the sender's batched OT response.
	PhaseOTSenderRespond = "ot.sender.respond_ns"
	// PhaseOTReceiverChoice times the receiver's batched choice
	// construction.
	PhaseOTReceiverChoice = "ot.receiver.choice_ns"
	// PhaseOTReceiverRecover times decryption of the k transferred
	// messages.
	PhaseOTReceiverRecover = "ot.receiver.recover_ns"

	// PhaseOTExtend times the IKNP extension's PRG column fills (the
	// AES-CTR expansion of the base seeds, both endpoints).
	PhaseOTExtend = "ot.extend_ns"
	// PhaseOTTranspose times the κ-column → m-row bit transpose.
	PhaseOTTranspose = "ot.transpose_ns"
	// PhaseOTPad times pad application: correlation-robust row hashes
	// plus tree-key encryption/decryption of the k-of-n payloads, both on
	// the fixed-key AES pad.
	PhaseOTPad = "ot.pad_ns"

	// PhaseClassifyRoundTrip times one complete in-process one-shot
	// private classification (request construction through label
	// interpretation). Network classifications are batches and record
	// PhaseClassifyBatch.
	PhaseClassifyRoundTrip = "classify.roundtrip_ns"
	// PhaseClassifyBatch times one complete batched classification round
	// trip (B samples, one message pair; a single classification is a
	// batch of one).
	PhaseClassifyBatch = "classify.batch_ns"

	// PhaseSimBoundary times boundary-point solving + centroid
	// computation when a similarity endpoint is built (§V-A geometry).
	PhaseSimBoundary = "similarity.boundary_ns"
	// PhaseSimCentroid / PhaseSimNormal / PhaseSimArea time Alice's
	// per-round masked evaluation + OT answer for the centroid
	// dot-product, normal dot-product, and area rounds of §V-B.
	PhaseSimCentroid = "similarity.round.centroid_ns"
	PhaseSimNormal   = "similarity.round.normal_ns"
	PhaseSimArea     = "similarity.round.area_ns"

	// PhaseHandshakeFull / PhaseHandshakeResumed time one fast-session
	// client handshake (Hello through base-phase completion) split by
	// outcome: full runs the κ base OTs, resumed restores from a ticket.
	// The pair is the resumption speedup's measured substrate.
	PhaseHandshakeFull    = "session.handshake_ns.full"
	PhaseHandshakeResumed = "session.handshake_ns.resumed"
)

// Counter names.
const (
	// CtrBytesIn / CtrBytesOut count wire bytes at the transport frame
	// layer (both directions named from the local process's point of
	// view), summed over every endpoint in the process regardless of
	// role.
	CtrBytesIn  = "transport.bytes_in"
	CtrBytesOut = "transport.bytes_out"
	// Role-split byte counters: when client and server share a process
	// (benches, in-process fleets over memnet), the totals above count
	// every byte twice — once per endpoint — and in == out tautologically.
	// The per-role counters keep the directions meaningful: a bench's
	// request bytes are CtrClientBytesOut ( == CtrServerBytesIn ), its
	// response bytes CtrClientBytesIn.
	CtrClientBytesIn  = "transport.client.bytes_in"
	CtrClientBytesOut = "transport.client.bytes_out"
	CtrServerBytesIn  = "transport.server.bytes_in"
	CtrServerBytesOut = "transport.server.bytes_out"
	// CtrMsgsIn / CtrMsgsOut count transport envelopes.
	CtrMsgsIn  = "transport.msgs_in"
	CtrMsgsOut = "transport.msgs_out"
	// CtrDialRetries counts dial attempts beyond each first attempt.
	CtrDialRetries = "transport.dial_retries"
	// CtrSessionsServed counts sessions admitted by the server.
	CtrSessionsServed = "transport.sessions_served"
	// CtrSessionsRejected counts sessions refused by the MaxSessions cap
	// or the drain state.
	CtrSessionsRejected = "transport.sessions_rejected"
	// CtrSessionsDrained counts sessions force-closed when a Shutdown
	// budget expired.
	CtrSessionsDrained = "transport.sessions_drained"
	// CtrOTInstances counts Naor–Pinkas 1-out-of-n instances executed:
	// k per batch transfer, plus the κ base transfers behind each IKNP
	// extension endpoint.
	CtrOTInstances = "ot.np_instances"
	// CtrGroupExp counts DDH-group exponentiations (scalar
	// multiplications on curve backends) performed by the OT layer — the
	// unit the field/OT backend sweep prices.
	CtrGroupExp = "ot.group_exp"
	// CtrClassifyQueries counts completed private classifications.
	CtrClassifyQueries = "classify.queries"
	// CtrClassifyBatches counts completed batched classifications (each
	// batch also adds its sample count to CtrClassifyQueries).
	CtrClassifyBatches = "classify.batches"
	// CtrSimilarityRounds counts completed similarity OMPE rounds.
	CtrSimilarityRounds = "similarity.rounds"

	// CtrRegistrySwaps counts model hot-swaps published to a registry.
	CtrRegistrySwaps = "registry.swaps"

	// CtrSessionsResumed counts fast sessions the server restored from a
	// resumption ticket (the base OT phase was skipped).
	CtrSessionsResumed = "sessions.resumed"
	// CtrResumeRejected counts presented tickets the server declined
	// (expired, tampered, replayed, spec-mismatched, or unknown mint);
	// each decline falls back to a full handshake.
	CtrResumeRejected = "resume.rejected"
	// CtrTicketsMinted counts resumption tickets minted at clean session
	// ends.
	CtrTicketsMinted = "transport.tickets_minted"

	// CtrGatewayRouted counts sessions the gateway admitted and spliced
	// to a replica.
	CtrGatewayRouted = "gateway.sessions_routed"
	// CtrGatewayShed counts sessions the gateway rejected at its own
	// capacity cap (the typed ErrFleetBusy path).
	CtrGatewayShed = "gateway.sessions_shed"
	// CtrGatewayUnrouteable counts sessions rejected because no healthy
	// replica could be dialed.
	CtrGatewayUnrouteable = "gateway.sessions_unrouteable"
	// CtrGatewayFailovers counts sessions that landed on a replica other
	// than the router's first choice because dialing it failed.
	CtrGatewayFailovers = "gateway.failovers"
	// CtrGatewayReplicaDown counts healthy→down transitions observed by
	// the gateway (probe failures and dial failures alike).
	CtrGatewayReplicaDown = "gateway.replica_down_transitions"
	// CtrGatewayDrained counts spliced sessions force-closed when a
	// gateway Shutdown budget expired.
	CtrGatewayDrained = "gateway.sessions_drained"
	// CtrGatewayResumeAffinity counts sessions the gateway routed to the
	// replica that minted their presented ticket.
	CtrGatewayResumeAffinity = "gateway.resume_affinity_hits"
	// CtrGatewayResumeMisses counts ticket-bearing sessions routed
	// elsewhere (minting replica unknown or unhealthy); the replica that
	// receives them silently declines into a full handshake.
	CtrGatewayResumeMisses = "gateway.resume_affinity_misses"
)

// Gauge names.
const (
	// GaugeSessionsActive is the server's current in-flight session count.
	GaugeSessionsActive = "transport.sessions_active"
	// GaugeRegistryVersion is the registry's currently published model
	// version.
	GaugeRegistryVersion = "registry.model_version"
	// GaugeGatewaySessions is the gateway's current spliced-session count.
	GaugeGatewaySessions = "gateway.sessions_active"
	// GaugeGatewayHealthy is the gateway's current healthy-replica count.
	GaugeGatewayHealthy = "gateway.replicas_healthy"
)

// GaugeReplicaSessions names the gateway's per-replica active-session
// gauge for replica index i (stable across health transitions, so fleet
// dashboards can plot each replica as one series).
func GaugeReplicaSessions(i int) string {
	return fmt.Sprintf("gateway.replica_sessions.%d", i)
}

// Magnitude histogram names (raw values, not nanoseconds).
const (
	// HistBatchSize records the sample count of each batched
	// classification served.
	HistBatchSize = "classify.batch_size"
	// HistInflightDepth records, at each pipelined send, how many batches
	// the client then has in flight on the connection.
	HistInflightDepth = "transport.inflight_depth"
)

// PhaseOfSimilarityRound maps a similarity round index (1=centroid,
// 2=normal, 3=area) to its phase name; unknown rounds map to the area
// phase's sibling namespace root and are still recorded.
func PhaseOfSimilarityRound(round int) string {
	switch round {
	case 1:
		return PhaseSimCentroid
	case 2:
		return PhaseSimNormal
	case 3:
		return PhaseSimArea
	default:
		return "similarity.round.other_ns"
	}
}
