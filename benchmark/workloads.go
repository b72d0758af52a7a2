package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type kind int

const (
	kindStream kind = iota
	kindSessionFull
	kindSessionResumed
	kindSimilarity
)

// A session of either session workload classifies sessionSamples samples
// as pipelined batches of sessionBatch.
const (
	sessionSamples  = 8
	sessionBatch    = 4
	sessionInflight = 2
)

// workload fixes one traffic shape. An op is one classified sample on a
// stream, one whole session on a session workload, one evaluation on
// similarity; a latency unit is what one timed call covers.
type workload struct {
	name      string
	why       string
	kind      kind
	dataset   string
	nonlinear bool
	batch     int     // samples per pipelined batch
	unit      int     // samples per latency unit
	inflight  int     // batches outstanding on the connection
	workers   int     // load-generator connections
	replicas  int     // servers behind the gateway, or the one server
	gateway   bool    // clients reach the replicas through a gateway
	rate      float64 // sessions per second (open loop); 0 = closed loop
}

// unitOps is how many ops one latency unit counts for.
func (w workload) unitOps() int {
	if w.kind == kindStream {
		return w.unit
	}
	return 1
}

var workloads = []workload{
	{
		name: "stream_narrow", kind: kindStream, dataset: "diabetes",
		batch: 64, unit: 512, inflight: 2, workers: 1, replicas: 1,
		why: "steady-state linear serving at n=8 on one long-lived fast session; per-pair kernels (ompe, ot extension, poly, limb field) do nearly all the work",
	},
	{
		name: "stream_wide", kind: kindStream, dataset: "madelon",
		batch: 16, unit: 128, inflight: 2, workers: 1, replicas: 1,
		why: "same code at n=500: cover evaluation per element, codec and socket bytes dominate, so wire/transport gains show here and per-pair OT gains do not",
	},
	{
		name: "stream_nonlinear", kind: kindStream, dataset: "diabetes", nonlinear: true,
		batch: 4, unit: 8, inflight: 2, workers: 1, replicas: 1,
		why: "the paper's cubic kernel needs a 270-bit field, so it is the only workload on the math/big twins; time is the server's decision-polynomial evaluator",
	},
	{
		name: "session_full", kind: kindSessionFull, dataset: "diabetes",
		batch: sessionBatch, unit: sessionSamples, inflight: sessionInflight, workers: 2, replicas: 2, gateway: true,
		why: "new-client admission through the gateway: dial, 128 x25519 base OTs, 8 samples, close; ec25519 and the OT base phase, stream kernels near zero",
	},
	{
		name: "session_resumed", kind: kindSessionResumed, dataset: "diabetes",
		batch: sessionBatch, unit: sessionSamples, inflight: sessionInflight, workers: 2, replicas: 2, gateway: true, rate: 300,
		why: "returning clients arrive independently (open loop, 300 sessions/s) with tickets: unseal, IKNP restore, Hello peek and mint-ID affinity instead of base OTs",
	},
	{
		name: "similarity_linear", kind: kindSimilarity, dataset: "diabetes",
		batch: sessionBatch, unit: 1, inflight: 1, workers: 1, replicas: 1, // batch: for the stream ledger only
		why: "the paper's second protocol: three one-shot OMPE rounds with Naor-Pinkas k-of-n OT on a math/big field, the reference path the fast engine never touches",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a measuring run prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDoc is the document a measuring run leaves in the output directory.
type runDoc struct {
	Host    hostBlock          `json:"host"`
	Result  runResult          `json:"result"`
	Details map[string]float64 `json:"details,omitempty"`
}

// phases sizes one measuring run.
type phases struct {
	setups  int           // times an end-to-end run sets the stack up; setup_s is the median
	warmUp  time.Duration // untimed load before the measured phase
	measure time.Duration // the measured phase (--seconds)
}

func defaultPhases(seconds float64) phases {
	return phases{setups: 7, warmUp: time.Second, measure: time.Duration(seconds * float64(time.Second))}
}

func (w workload) load(d time.Duration) loadConfig {
	return loadConfig{workers: w.workers, rate: w.rate, duration: d}
}

// warm runs the workload untimed; a failure here ends the run.
func warm(s *stack, w workload, d time.Duration) error {
	res := runLoad(realClock{}, w.load(d), s.unit)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %w", res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// measured is one timed phase with the process counters around it.
type measured struct {
	load                loadResult
	cpu                 time.Duration
	wireBytes           int64
	allocBytes, mallocs uint64
	gcCPU               float64
	peakRSS             float64 // MB, over this phase only
}

func (m measured) good() int { return m.load.attempted - m.load.failed }

func measure(s *stack, w workload, d time.Duration) (measured, error) {
	// Set-up leaves garbage behind (SVM training most of all) that the
	// runtime hands back to the system only slowly. Hand it back now, so
	// that the phase's peak memory is the serving system's, not set-up's.
	debug.FreeOSMemory()
	rss := watchRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	wire0 := s.wire.Load()
	cpu0, err := cpuTime()
	if err != nil {
		_, _ = rss.stop()
		return measured{}, err
	}
	res := runLoad(realClock{}, w.load(d), s.unit)
	cpu1, err := cpuTime()
	if err != nil {
		_, _ = rss.stop()
		return measured{}, err
	}
	runtime.ReadMemStats(&after)
	peak, err := rss.stop()
	if err != nil {
		return measured{}, err
	}
	return measured{
		peakRSS:    peak,
		load:       res,
		cpu:        cpu1 - cpu0,
		wireBytes:  s.wire.Load() - wire0,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCPU:      gcCPUSeconds() - gc0,
	}, nil
}

// runEndToEnd measures the user-visible metrics with tracing off.
func runEndToEnd(w workload, seed uint64, ph phases) (*runDoc, error) {
	t0 := time.Now()
	s, err := buildStack(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cold := time.Since(t0)
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()
	if err := warm(s, w, ph.warmUp); err != nil {
		return nil, err
	}
	m, err := measure(s, w, ph.measure)
	if err != nil {
		return nil, err
	}
	closed = true
	s.close()
	// setup_s is timed after the measured phase, when the process is warm:
	// the first set-ups of a cold process take up to twice as long, and by
	// a different amount each run.
	var setups []time.Duration
	for i := 0; i < ph.setups; i++ {
		t0 := time.Now()
		again, err := buildStack(w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0))
		again.close()
	}
	if m.good() == 0 {
		return nil, fmt.Errorf("no op succeeded: %w", m.load.firstErr)
	}
	good := float64(m.good())
	doc := &runDoc{Host: newHostBlock(seed), Details: map[string]float64{}}
	doc.Host.Workload, doc.Host.Engine, doc.Host.Seconds = w.name, engineInfo(w), m.load.wall.Seconds()
	doc.Host.Samples = map[string]int{"latency": len(m.load.latency), "ops": m.load.attempted, "setups": len(setups)}
	doc.Result = runResult{
		Correct:   m.load.failed == 0,
		Attempted: m.load.attempted,
		Failed:    m.load.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(setups).Seconds(), "s"},
			"throughput_ops_s":  {good / m.load.wall.Seconds(), "1/s"},
			"latency_p50_ms":    {ms(percentile(m.load.latency, 50)), "ms"},
			"wire_bytes_per_op": {float64(m.wireBytes) / good, "B"},
			"cpu_ms_per_op":     {ms(m.cpu) / good, "ms"},
		},
	}
	doc.Details["failed_fraction"] = float64(m.load.failed) / float64(m.load.attempted)
	doc.Details["latency_p90_ms"] = ms(percentile(m.load.latency, 90))
	doc.Details["setup_cold_s"] = cold.Seconds()
	doc.Details["peak_rss_mb"] = m.peakRSS
	if p, ok := highestPercentile(len(m.load.latency)); ok {
		doc.Details["latency_tail_percentile"] = p
		doc.Details["latency_tail_ms"] = ms(percentile(m.load.latency, p))
	}
	if w.rate > 0 {
		doc.Details["lateness_p50_ms"] = ms(percentile(m.load.lateness, 50))
		doc.Details["lateness_p90_ms"] = ms(percentile(m.load.lateness, 90))
		doc.Details["lateness_p99_ms"] = ms(percentile(m.load.lateness, 99))
		doc.Details["service_p50_ms"] = ms(percentile(m.load.service, 50))
		doc.Details["service_p90_ms"] = ms(percentile(m.load.service, 90))
		doc.Details["backlog_max"] = float64(m.load.backlog)
	}
	if m.load.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", w.name, m.load.firstErr)
	}
	return doc, nil
}

// Secondary ledgers replay a fixed few iterations; the workload's own
// ledger gets what is left of the run.
const secondaryIters = 3

// runTraced measures the per-layer metrics: a shorter loopback phase for
// the counts and ratios that only the running system has, then the three
// stepped ledgers, the workload's own for most of the time.
func runTraced(w workload, seed uint64, ph phases, outDir string) (*runDoc, error) {
	goroutines := runtime.NumGoroutine()
	s, err := buildStack(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// stop ends what the run holds open; the leak count needs it done
	// before the function returns, the error paths need it done at all.
	var stopped bool
	var stream ledger
	stop := func() {
		if !stopped {
			stopped = true
			if stream.close != nil {
				stream.close()
			}
			s.close()
		}
	}
	defer stop()
	if err := warm(s, w, ph.warmUp); err != nil {
		return nil, err
	}
	budget := ph.measure
	gw0 := s.gatewayStats()
	m, err := measure(s, w, budget*3/10)
	if err != nil {
		return nil, err
	}
	if m.good() == 0 {
		return nil, fmt.Errorf("no op succeeded: %w", m.load.firstErr)
	}
	gw1 := s.gatewayStats()
	offered, resumed := s.offered.Load(), s.resumed.Load()

	rec := &recorder{origin: time.Now()}
	stream, counts, err := s.streamLedger()
	if err != nil {
		return nil, err
	}
	session, sessionBytes, err := s.sessionLedger()
	if err != nil {
		return nil, err
	}
	similar, err := s.similarityLedger(seed)
	if err != nil {
		return nil, err
	}
	results := map[string]*ledgerResult{}
	primary := map[kind]string{kindStream: "stream", kindSessionFull: "session", kindSessionResumed: "session", kindSimilarity: "similarity"}[w.kind]
	var primaryLedger ledger
	for _, l := range []ledger{stream, session, similar} {
		if l.name == primary {
			primaryLedger = l
			continue
		}
		if results[l.name], err = l.replay(rec, 0, secondaryIters); err != nil {
			return nil, err
		}
	}
	left := budget - time.Since(rec.origin) - m.load.wall
	if results[primary], err = primaryLedger.replay(rec, left, secondaryIters); err != nil {
		return nil, err
	}
	maxRelErr := s.maxRelErr

	stop()
	leaked := leakedGoroutines(goroutines)

	st, se, si := results["stream"], results["session"], results["similarity"]
	good := float64(m.good())
	throughput := good / m.load.wall.Seconds()
	us, msec := time.Microsecond, time.Millisecond
	steppedUs := float64(median(st.walls)) / float64(us) / float64(st.per)
	openFull := se.step("transport.dial_direct") + se.step("transport.handshake_full")
	openResumed := se.step("transport.dial_direct") + se.step("transport.handshake_resumed")
	doc := &runDoc{Host: newHostBlock(seed), Details: map[string]float64{}}
	doc.Host.Workload, doc.Host.Engine, doc.Host.Seconds = w.name, engineInfo(w), budget.Seconds()
	doc.Host.Samples = map[string]int{
		"loopback_latency": len(m.load.latency), "stream_iterations": st.iters,
		"session_iterations": se.iters, "similarity_iterations": si.iters, "spans": len(rec.spans),
	}
	mt := map[string]metric{}
	add := func(name, unit string, v float64) { mt[name] = metric{v, unit} }

	add("classify.client_newbatch_us", "us", st.perUnit("classify.client_newbatch", us))
	add("fixedpoint.encode_us", "us", st.perUnit("fixedpoint.encode", us))
	add("ompe.receiver_newbatch_us", "us", st.perUnit("ompe.receiver_newbatch", us))
	add("ot.ext_query_us", "us", st.perUnit("ot.ext_query", us))
	add("wire.encode_request_us", "us", st.perUnit("wire.encode_request", us))
	add("wire.decode_request_us", "us", st.perUnit("wire.decode_request", us))
	add("wire.encode_response_us", "us", st.perUnit("wire.encode_response", us))
	add("wire.decode_response_us", "us", st.perUnit("wire.decode_response", us))
	add("classify.server_handlebatch_us", "us", st.perUnit("classify.server_handlebatch", us))
	add("ompe.sender_handlebatch_us", "us", st.perUnit("ompe.sender_handlebatch", us))
	add("classify.evaluator_us", "us", nonNegative(st.perUnit("classify.server_handlebatch", us)-st.perUnit("ompe.sender_handlebatch", us)))
	add("ot.ext_respond_us", "us", st.perUnit("ot.ext_respond", us))
	add("classify.client_finish_us", "us", st.perUnit("classify.client_finish", us))
	add("ot.ext_recover_us", "us", st.perUnit("ot.ext_recover", us))
	add("poly.interpolate_us", "us", st.perUnit("poly.interpolate", us))
	add("field.limb_mul_ns", "ns", float64(st.step("field.limb_mul"))/fieldMuls)
	add("field.big_mul_ns", "ns", float64(st.step("field.big_mul"))/fieldMuls)
	add("transport.frame_echo_us", "us", float64(st.step("transport.frame_echo"))/float64(us))

	add("ompe.pairs_per_query", "count", float64(counts.pairs))
	add("ot.choice_bits_per_query", "count", float64(counts.choiceBits))
	add("entropy.rand_bytes_per_query", "B", counts.randBytes)
	add("wire.request_bytes_per_query", "B", counts.requestBytes)
	add("wire.response_bytes_per_query", "B", counts.responseBytes)
	add("wire.floor_bytes_per_query", "B", counts.floorBytes)
	add("wire.overhead_ratio", "ratio", (counts.requestBytes+counts.responseBytes)/counts.floorBytes)

	add("ledger.stepped_us_per_query", "us", steppedUs)
	add("ledger.attributed_fraction", "ratio", st.attributedFraction())
	pipelineGain := 0.0
	if w.kind == kindStream {
		pipelineGain = steppedUs * throughput / 1e6
	}
	add("transport.pipeline_gain", "ratio", pipelineGain)

	add("ot.base_client_setup_ms", "ms", se.perUnit("ot.base_client_setup", msec))
	add("ot.base_server_choice_ms", "ms", se.perUnit("ot.base_server_choice", msec))
	add("ot.base_client_finish_ms", "ms", se.perUnit("ot.base_client_finish", msec))
	add("ot.base_server_finish_ms", "ms", se.perUnit("ot.base_server_finish", msec))
	add("ec25519.scalar_mult_us", "us", se.perUnit("ec25519.scalar_mult", us))
	add("ec25519.scalar_base_mult_us", "us", se.perUnit("ec25519.scalar_base_mult", us))
	add("transport.handshake_full_ms", "ms", se.perUnit("transport.handshake_full", msec))
	add("transport.handshake_resumed_ms", "ms", se.perUnit("transport.handshake_resumed", msec))
	add("transport.queries_full_ms", "ms", se.perUnit("transport.queries_full", msec))
	add("transport.queries_resumed_ms", "ms", se.perUnit("transport.queries_resumed", msec))
	add("transport.close_ms", "ms", se.perUnit("transport.close", msec))
	add("transport.ticket_bytes", "B", float64(sessionBytes.ticketBytes))
	add("classify.snapshot_us", "us", se.perUnit("classify.snapshot", us))
	add("classify.resume_client_us", "us", se.perUnit("classify.resume_client", us))
	add("classify.resume_server_us", "us", se.perUnit("classify.resume_server", us))
	add("gateway.added_full_ms", "ms", ms(se.step("gateway.dial")+se.step("gateway.handshake_full")-openFull))
	add("gateway.added_resumed_ms", "ms", ms(se.step("gateway.dial")+se.step("gateway.handshake_resumed")-openResumed))
	add("wire.session_bytes_full", "B", float64(sessionBytes.bytesFull))
	add("wire.session_bytes_resumed", "B", float64(sessionBytes.bytesResumed))

	add("transport.resumed_ratio", "ratio", ratio(resumed, offered))
	hits, misses := gw1.affinityHits-gw0.affinityHits, gw1.affinityMisses-gw0.affinityMisses
	add("gateway.affinity_hit_ratio", "ratio", ratio(hits, hits+misses))
	add("gateway.failovers", "count", float64(gw1.failovers-gw0.failovers))
	add("gateway.shed", "count", float64(gw1.shed-gw0.shed))
	add("gateway.replica_skew", "ratio", replicaSkew(gw0.routed, gw1.routed))
	add("loadgen.lateness_p99_ms", "ms", ms(percentile(m.load.lateness, 99)))
	add("loadgen.backlog_max", "count", float64(m.load.backlog))
	add("loadgen.service_p50_ms", "ms", ms(percentile(m.load.service, 50)))
	add("loadgen.latency_p90_ms", "ms", ms(percentile(m.load.latency, 90)))
	add("loadgen.latency_p99_ms", "ms", ms(percentile(m.load.latency, 99)))
	add("loadgen.failed_fraction", "ratio", float64(m.load.failed)/float64(m.load.attempted))

	add("similarity.alice_setup_ms", "ms", si.perUnit("similarity.alice_setup", msec))
	add("similarity.bob_setup_ms", "ms", si.perUnit("similarity.bob_setup", msec))
	add("similarity.round_dot_ms", "ms", (si.perUnit("similarity.round_centroid", msec)+si.perUnit("similarity.round_normal", msec))/2)
	add("similarity.round_area_ms", "ms", si.perUnit("similarity.round_area", msec))
	add("ot.kofn_dot_ms", "ms", si.perUnit("ot.kofn_dot", msec))
	add("ot.kofn_area_ms", "ms", si.perUnit("ot.kofn_area", msec))
	add("similarity.max_rel_error", "ratio", maxRelErr)

	add("runtime.alloc_bytes_per_op", "B", float64(m.allocBytes)/good)
	add("runtime.allocs_per_op", "count", float64(m.mallocs)/good)
	add("runtime.gc_cpu_fraction", "ratio", m.gcCPU/m.cpu.Seconds())
	add("runtime.peak_rss_mb", "MB", m.peakRSS)
	add("runtime.goroutines_leaked", "count", float64(leaked))
	add("trace.overhead_fraction", "ratio", results[primary].overheadFraction())

	doc.Result = runResult{Correct: m.load.failed == 0, Attempted: m.load.attempted, Failed: m.load.failed, Metrics: mt}
	if m.load.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", w.name, m.load.firstErr)
	}
	base := se.step("ot.base_client_setup") + se.step("ot.base_server_choice") + se.step("ot.base_client_finish") + se.step("ot.base_server_finish")
	// The four base steps against what a full session pays over a resumed
	// one: its handshake, plus the server's FinishBase in its first batch.
	excess := se.step("transport.handshake_full") + se.step("transport.queries_full") - se.step("transport.queries_resumed")
	doc.Details["ot_base_steps_over_full_session_excess"] = float64(base) / float64(excess)
	doc.Details["ot_base_client_steps_over_handshake_full"] = float64(base-se.step("ot.base_server_finish")) / float64(se.step("transport.handshake_full"))
	doc.Details["session_attributed_fraction"] = se.attributedFraction()
	doc.Details["similarity_attributed_fraction"] = si.attributedFraction()
	if err := writeTrace(outDir, w, doc.Host, rec, []*ledgerResult{st, se, si}); err != nil {
		return nil, err
	}
	return doc, nil
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replicaSkew is the busiest replica's share of the phase's sessions over
// an even share: 1 is balanced, the replica count is one replica taking
// everything.
func replicaSkew(before, after []int64) float64 {
	var total, most int64
	for i := range after {
		n := after[i]
		if i < len(before) {
			n -= before[i]
		}
		total += n
		if n > most {
			most = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(after)) / float64(total)
}

// leakedGoroutines waits a moment for the goroutines of closed
// connections to unwind, then counts those above the starting level.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - baseline; n > 0 {
		return n
	}
	return 0
}

// ledgerSummary is one ledger's table in the trace file.
type ledgerSummary struct {
	Name               string        `json:"name"`
	Per                int           `json:"queries_per_iteration"`
	Iterations         int           `json:"iterations"`
	AttributedFraction float64       `json:"attributed_fraction"`
	Steps              []stepSummary `json:"steps"`
}

type stepSummary struct {
	Name     string  `json:"name"`
	MedianUs float64 `json:"median_us"`
	Samples  int     `json:"samples"`
}

// maxTraceSpans bounds the spans written out; the rest stay counted.
const maxTraceSpans = 20000

type traceDoc struct {
	Host       hostBlock          `json:"host"`
	Ledgers    []ledgerSummary    `json:"ledgers"`
	SelfUs     map[string]float64 `json:"self_time_us_total"`
	SpansTotal int                `json:"spans_total"`
	Spans      []span             `json:"spans"`
}

func writeTrace(outDir string, w workload, host hostBlock, rec *recorder, results []*ledgerResult) error {
	doc := traceDoc{Host: host, SpansTotal: len(rec.spans), SelfUs: map[string]float64{}}
	for name, d := range selfTimes(rec.spans) {
		doc.SelfUs[name] = float64(d) / float64(time.Microsecond)
	}
	for _, r := range results {
		sum := ledgerSummary{Name: r.ledger, Per: r.per, Iterations: r.iters, AttributedFraction: r.attributedFraction()}
		names := make([]string, 0, len(r.durs))
		for name := range r.durs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sum.Steps = append(sum.Steps, stepSummary{Name: name, MedianUs: float64(r.step(name)) / float64(time.Microsecond), Samples: len(r.durs[name])})
		}
		doc.Ledgers = append(doc.Ledgers, sum)
	}
	doc.Spans = rec.spans
	if len(doc.Spans) > maxTraceSpans {
		doc.Spans = doc.Spans[:maxTraceSpans]
	}
	return writeJSON(outDir, "trace-"+w.name+".json", doc)
}
