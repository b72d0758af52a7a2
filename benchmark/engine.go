package main

// engine.go is the harness's only door into the repository: every call
// into repro/internal/... is made from this file, so that an API change
// in the serving stack re-points the benchmark with one small diff. The
// rest of the harness sees a stack (servers up on loopback, one unit of
// work per call) and three ledgers (named steps to replay one by one).

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	mrand "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/ec25519"
	"repro/internal/entropy"
	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/gateway"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/poly"
	"repro/internal/registry"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/transport"
)

// modelSeed generates the training data of every served model. The model
// is part of a workload's definition, not of its input: the work of a
// nonlinear query grows with the support-vector count, which --seed must
// not move. --seed draws the queries (and Bob's model for similarity).
const modelSeed = 1

// simTolerance is the relative error allowed between the private
// similarity result and the plaintext one.
const simTolerance = 1e-4

// errMismatch marks a result that disagrees with the plaintext oracle.
var errMismatch = errors.New("result disagrees with the plaintext oracle")

func quiet(string, ...any) {}

// engineInfo describes the serving configuration for the host block.
func engineInfo(w workload) map[string]any {
	backend := string(field.BackendLimb)
	if w.nonlinear {
		backend = string(field.BackendBig)
	}
	info := map[string]any{
		"base_ot_group": ot.X25519().Name(),
		"ot_pad":        string(ot.PadAES),
		"wire_codec":    transport.CodecBinary,
		"field_backend": backend,
		"parallelism":   1,
		"model_seed":    modelSeed,
	}
	if w.kind == kindSimilarity {
		info["field_backend"] = string(field.BackendBig)
		info["ot"] = "naor-pinkas k-of-n"
	}
	return info
}

// linearModel is a hyperplane for the similarity protocol.
type linearModel struct {
	w []float64
	b float64
}

// stack is one workload's serving system, up on loopback TCP, with the
// query stream and the oracle's answers.
type stack struct {
	w      workload
	model  *svm.Model
	reg    *registry.Registry
	opts   transport.Options
	spec   classify.Spec // the contract a session of this workload negotiates
	simCfg similarity.Params

	servers []*transport.Server
	addrs   []string
	gw      *gateway.Gateway
	gwAddr  string
	serving sync.WaitGroup // the Serve goroutines

	ring   [][]float64 // query samples in seed order
	labels []int       // Model.Classify of each ring sample
	alice  linearModel
	bob    linearModel
	simT   float64 // plaintext similarity of alice and bob

	wire    atomic.Int64 // bytes read and written by the clients
	offered atomic.Int64 // sessions that presented a ticket
	resumed atomic.Int64 // of which the server resumed
	workers []*worker

	errMu     sync.Mutex
	maxRelErr float64
}

// worker is one load-generator connection's state.
type worker struct {
	cursor int
	stream *transport.FastClassifyClient
	fleet  *gateway.FleetClient
}

func trainModel(ds *dataset.Dataset, spec dataset.Spec, nonlinear bool) (*svm.Model, error) {
	cfg := svm.Config{Kernel: svm.Linear(), C: spec.LinC}
	if nonlinear {
		cfg = svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC}
	}
	return svm.Train(ds.X, ds.Y, cfg)
}

func linearOf(m *svm.Model) (linearModel, error) {
	w, err := m.LinearWeights()
	return linearModel{w: w, b: m.Bias}, err
}

// buildStack generates the data, trains the model, starts the servers,
// primes every worker and runs one verified unit on each: everything a
// run does before its first measured op.
func buildStack(w workload, seed uint64) (s *stack, err error) {
	spec, err := dataset.SpecByName(w.dataset)
	if err != nil {
		return nil, err
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	seeded, queries, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	s = &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	backend := field.BackendLimb
	if w.nonlinear {
		backend = field.BackendBig
	}
	if w.kind == kindSimilarity {
		half, err := train.Slice(0, train.Len()/2)
		if err != nil {
			return nil, err
		}
		s.model, err = trainModel(half, spec, false)
		if err != nil {
			return nil, err
		}
		other, err := seeded.Slice(seeded.Len()/2, seeded.Len())
		if err != nil {
			return nil, err
		}
		bobModel, err := trainModel(other, spec, false)
		if err != nil {
			return nil, err
		}
		if s.alice, err = linearOf(s.model); err != nil {
			return nil, err
		}
		if s.bob, err = linearOf(bobModel); err != nil {
			return nil, err
		}
		s.simCfg = similarity.Params{Group: ot.X25519(), Parallelism: 1}
		clear, err := similarity.EvaluateLinear(s.alice.w, s.alice.b, s.bob.w, s.bob.b, similarity.DefaultMetric())
		if err != nil {
			return nil, err
		}
		s.simT = clear.T
	} else {
		s.model, err = trainModel(train, spec, w.nonlinear)
		if err != nil {
			return nil, err
		}
	}

	s.reg = registry.New(classify.Params{Group: ot.X25519(), FieldBackend: backend, Parallelism: 1})
	entry, err := s.reg.Publish(s.model)
	if err != nil {
		return nil, err
	}
	s.spec = entry.Trainer.SessionSpec(backend)
	s.spec.WireCodec = transport.CodecBinary
	s.spec.PadFunc = string(ot.PadAES)
	s.opts = transport.Options{
		FieldBackend: string(backend),
		WireCodec:    transport.CodecBinary,
		PadFunc:      string(ot.PadAES),
		MaxAttempts:  1,
	}

	for i := 0; i < w.replicas; i++ {
		srv := transport.NewServerSource(s.reg)
		srv.Logf = quiet
		if w.kind == kindSimilarity {
			srv.EnableSimilarity(s.alice.w, s.alice.b, s.simCfg)
		}
		addr, err := s.serve(srv.Serve)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, addr)
	}
	if w.gateway {
		if err := s.startGateway(); err != nil {
			return nil, err
		}
	}

	// The query ring: the seed's test split in a seeded order, repeated to
	// a whole number of latency units, with the oracle's label for each.
	order := mrand.New(mrand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(queries.Len())
	units := (queries.Len() + w.unit - 1) / w.unit
	if units < 2 {
		units = 2
	}
	s.ring = make([][]float64, units*w.unit)
	s.labels = make([]int, len(s.ring))
	for i := range s.ring {
		s.ring[i] = queries.X[order[i%len(order)]]
		if s.labels[i], err = s.model.Classify(s.ring[i]); err != nil {
			return nil, err
		}
	}

	if err := s.prime(); err != nil {
		return nil, err
	}
	for i := range s.workers {
		if _, err := s.unit(i); err != nil {
			return nil, fmt.Errorf("first op: %w", err)
		}
	}
	return s, nil
}

// serve starts an accept loop on a fresh loopback listener.
func (s *stack) serve(loop func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = loop(ln) // returns when shutdown closes the listener
	}()
	return ln.Addr().String(), nil
}

func (s *stack) startGateway() error {
	gw, err := gateway.New(s.addrs, gateway.Options{Logf: quiet})
	if err != nil {
		return err
	}
	s.gw = gw
	s.gwAddr, err = s.serve(gw.Serve)
	return err
}

// dial opens a client connection whose bytes count towards the wire total.
func (s *stack) dial(ctx context.Context, addr string) (net.Conn, error) {
	nc, err := transport.DialContext(ctx, addr, s.opts)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, total: &s.wire}, nil
}

func (s *stack) fleetClient(offerResume bool) *gateway.FleetClient {
	opts := s.opts
	opts.OfferResume = offerResume
	return gateway.NewFleetClient(s.dial, s.gwAddr, opts, rand.Reader, 1)
}

// prime brings every worker to the state its measured units start from:
// a live session for a stream, a ticket the gateway can route for a
// resumed session.
func (s *stack) prime() error {
	ctx := context.Background()
	s.workers = make([]*worker, s.w.workers)
	for i := range s.workers {
		s.workers[i] = &worker{cursor: i * s.w.unit % len(s.ring)}
	}
	switch s.w.kind {
	case kindStream:
		for _, wk := range s.workers {
			nc, err := s.dial(ctx, s.addrs[0])
			if err != nil {
				return err
			}
			wk.stream, err = transport.NewFastClassifyClientContext(ctx, nc, s.opts, rand.Reader)
			if err != nil {
				_ = nc.Close()
				return err
			}
		}
	case kindSessionResumed:
		// Mint one ticket chain per worker, the first full sessions side by
		// side so that least-loaded routing spreads them over the replicas.
		errs := make(chan error, len(s.workers))
		for i, wk := range s.workers {
			wk.fleet = s.fleetClient(true)
			go func(i int) { _, err := s.unit(i); errs <- err }(i)
		}
		var first error
		for range s.workers {
			if err := <-errs; err != nil && first == nil {
				first = fmt.Errorf("mint ticket: %w", err)
			}
		}
		if first != nil {
			return first
		}
		// The gateway learns each replica's mint ID from its health probe;
		// tickets route by affinity only once it has. Redial until they do.
		deadline := time.Now().Add(10 * time.Second)
		for i := range s.workers {
			for {
				hits := s.gw.Stats().AffinityHits
				if _, err := s.unit(i); err != nil {
					return fmt.Errorf("mint-ID probe: %w", err)
				}
				if s.gw.Stats().AffinityHits > hits {
					break
				}
				if time.Now().After(deadline) {
					return errors.New("mint-ID probe: the gateway never routed a ticket by affinity")
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		s.offered.Store(0)
		s.resumed.Store(0)
	}
	return nil
}

// unit runs one latency unit on a worker and checks it against the oracle.
func (s *stack) unit(i int) (int, error) {
	ctx := context.Background()
	wk := s.workers[i]
	ops := s.w.unitOps()
	if s.w.kind == kindSimilarity {
		return ops, s.similarityUnit(ctx)
	}
	lo := wk.cursor
	wk.cursor = (lo + s.w.unit) % len(s.ring)
	samples, want := s.ring[lo:lo+s.w.unit], s.labels[lo:lo+s.w.unit]
	var got []int
	var err error
	switch s.w.kind {
	case kindStream:
		got, err = wk.stream.ClassifyPipelined(ctx, samples, s.w.batch, s.w.inflight)
	case kindSessionFull:
		fc := s.fleetClient(false)
		got, err = fc.ClassifyPipelined(ctx, samples, s.w.batch, s.w.inflight)
		if cerr := fc.Close(); err == nil {
			err = cerr
		}
		if err == nil && fc.Retries() > 0 {
			err = fmt.Errorf("session redialed %d time(s)", fc.Retries())
		}
	case kindSessionResumed:
		before := wk.fleet.Resumed()
		got, err = wk.fleet.ClassifyPipelined(ctx, samples, s.w.batch, s.w.inflight)
		if cerr := wk.fleet.Close(); err == nil {
			err = cerr
		}
		s.offered.Add(1)
		s.resumed.Add(wk.fleet.Resumed() - before)
	}
	if err != nil {
		return ops, err
	}
	return ops, checkLabels(got, want)
}

func checkLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d labels for %d samples", errMismatch, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: sample %d classified %d, plaintext says %d", errMismatch, i, got[i], want[i])
		}
	}
	return nil
}

// similarityUnit runs one evaluation as Bob over a fresh connection.
func (s *stack) similarityUnit(ctx context.Context) error {
	nc, err := s.dial(ctx, s.addrs[0])
	if err != nil {
		return err
	}
	// EvaluateSimilarityContext owns nc and closes it.
	res, err := transport.EvaluateSimilarityContext(ctx, nc, s.bob.w, s.bob.b, s.opts, rand.Reader)
	if err != nil {
		return err
	}
	return s.checkSimilarity(res.T, s.simT)
}

// checkSimilarity holds a private result against the plaintext one and
// keeps the largest relative error the run has seen.
func (s *stack) checkSimilarity(got, want float64) error {
	rel := math.Abs(got-want) / math.Abs(want)
	s.errMu.Lock()
	if rel > s.maxRelErr {
		s.maxRelErr = rel
	}
	s.errMu.Unlock()
	if !(rel <= simTolerance) { // also catches NaN
		return fmt.Errorf("%w: T = %.9g, plaintext says %.9g", errMismatch, got, want)
	}
	return nil
}

// gatewayStats reports the routing ledger of the measured phase.
type gatewayStats struct {
	affinityHits, affinityMisses int64
	failovers, shed              int64
	routed                       []int64
}

func (s *stack) gatewayStats() gatewayStats {
	if s.gw == nil {
		return gatewayStats{}
	}
	st := s.gw.Stats()
	out := gatewayStats{affinityHits: st.AffinityHits, affinityMisses: st.AffinityMisses, failovers: st.Failovers, shed: st.Shed}
	for _, r := range st.Replicas {
		out.routed = append(out.routed, r.Routed)
	}
	return out
}

// close ends every session and stops every server, and returns once the
// accept loops have ended.
func (s *stack) close() {
	for _, wk := range s.workers {
		if wk == nil {
			continue
		}
		if wk.stream != nil {
			_ = wk.stream.Close()
		}
		if wk.fleet != nil {
			_ = wk.fleet.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.gw != nil {
		_ = s.gw.Shutdown(ctx)
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	s.serving.Wait()
}

// --- stream ledger ---------------------------------------------------

// constEval stands in for the model in the ompe probe, so that
// ompe.sender_handlebatch holds everything but the evaluator.
type constEval struct {
	n int
	v *big.Int
	l limb.Element
}

func (e *constEval) NumVars() int                     { return e.n }
func (e *constEval) Eval(field.Vec) (*big.Int, error) { return e.v, nil }
func (e *constEval) EvalLimb(_ []limb.Element, out *limb.Element) error {
	*out = e.l
	return nil
}

// streamCounts are the per-query counts of one stepped batch.
type streamCounts struct {
	pairs, choiceBits                      int
	randBytes, requestBytes, responseBytes float64
	floorBytes                             float64
}

// streamLedger replays one batch of the workload's shape through
// classify -> wire -> classify -> wire -> classify, with probes into
// fixedpoint, ompe, ot, poly, field and transport.
func (s *stack) streamLedger() (ledger, *streamCounts, error) {
	trainer := s.reg.CurrentTrainer()
	spec := s.spec
	rng := &countingReader{r: entropy.Buffered(rand.Reader)}
	batch := s.w.batch
	samples, want := s.ring[:batch], s.labels[:batch]

	fc, setup, err := classify.NewFastClient(spec, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	ft, choice, err := trainer.NewFastSessionFor(spec, setup, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	tr, err := fc.FinishBase(choice, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	if err := ft.FinishBase(tr); err != nil {
		return ledger{}, nil, err
	}

	// The probes' own endpoints: an ompe pair around a constant evaluator
	// and a bare OT-extension pair, at the session's parameters.
	params, err := spec.OMPEParams()
	if err != nil {
		return ledger{}, nil, err
	}
	serverParams := params
	serverParams.Parallelism = 1
	client, err := classify.NewClient(spec)
	if err != nil {
		return ledger{}, nil, err
	}
	eval := &constEval{n: client.NumVars(), v: big.NewInt(7)}
	eval.l.SetUint64(7)
	osr, osetup, err := ompe.NewSessionReceiverBase(params, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	oss, ochoice, err := ompe.NewSessionSenderBase(serverParams, eval, osetup, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	otr, err := osr.FinishBaseReceiver(ochoice, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	if err := oss.FinishBaseSender(otr); err != nil {
		return ledger{}, nil, err
	}
	iknpS, iknpR, err := ot.NewIKNP(params.Group, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	iknpS.SetPad(params.Pad)
	iknpR.SetPad(params.Pad)
	iknpS.SetParallelism(1)

	m, total := params.GenuineCount(), params.TotalPairs()
	elemLen := params.Field.ElementLen()
	indices := make([][]int, batch)
	msgs := make([][][]byte, batch)
	pick := mrand.New(mrand.NewPCG(1, 2))
	for b := range indices {
		indices[b] = pick.Perm(total)[:m]
		msgs[b] = make([][]byte, total)
		for j := range msgs[b] {
			msgs[b][j] = make([]byte, elemLen)
			if _, err := io.ReadFull(rng, msgs[b][j]); err != nil {
				return ledger{}, nil, err
			}
			msgs[b][j][0] &= 0x3f // stay below the modulus
		}
	}
	interpolate, err := interpolateProbe(params, batch, m, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	mulLimb, mulBig, err := fieldMulProbes(params.Field, rng)
	if err != nil {
		return ledger{}, nil, err
	}
	echo, closeEcho, err := frameEcho()
	if err != nil {
		return ledger{}, nil, err
	}

	counts := &streamCounts{
		pairs:      total,
		floorBytes: float64(total*(client.NumVars()+1)*elemLen + total*elemLen),
	}
	var (
		fb        *classify.FastBatch
		req, req2 *ompe.FastBatchRequest
		resp      *ompe.FastBatchResponse
		resp2     = new(ompe.FastBatchResponse)
		reqBytes  []byte
		respBytes []byte
		inputs    = make([]field.Vec, batch)
		oreq      *ompe.FastBatchRequest
		oquery    *ot.ExtKofNBatchQuery
		otReq     *ot.ExtKofNBatchRequest
		otResp    *ot.ExtKofNBatchResponse
		drawn     int64
	)
	const (
		newBatch = "classify.client_newbatch"
		handle   = "classify.server_handlebatch"
		finish   = "classify.client_finish"
		recvNew  = "ompe.receiver_newbatch"
		sendHan  = "ompe.sender_handlebatch"
	)
	steps := []step{
		{name: newBatch, run: func() (err error) {
			drawn = rng.n
			fb, req, err = fc.NewBatch(samples, rng)
			return err
		}},
		{name: "wire.encode_request", run: func() (err error) {
			reqBytes, err = req.MarshalBinary()
			return err
		}},
		{name: "wire.decode_request", run: func() error {
			req2 = new(ompe.FastBatchRequest)
			return req2.UnmarshalBinary(reqBytes)
		}},
		{name: handle, run: func() (err error) {
			resp, err = ft.HandleBatch(req2, rng)
			return err
		}},
		{name: "wire.encode_response", run: func() (err error) {
			respBytes, err = resp.MarshalBinary()
			return err
		}},
		{name: "wire.decode_response", run: func() error {
			resp2 = new(ompe.FastBatchResponse)
			return resp2.UnmarshalBinary(respBytes)
		}},
		{name: finish, run: func() error {
			got, err := fb.Finish(resp2)
			if err != nil {
				return err
			}
			counts.randBytes = float64(rng.n-drawn) / float64(batch)
			return checkLabels(got, want)
		}},

		{name: "fixedpoint.encode", parent: newBatch, probe: true, run: func() (err error) {
			for i, sample := range samples {
				if inputs[i], err = client.EncodeSample(sample); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: recvNew, parent: newBatch, probe: true, run: func() (err error) {
			_, oreq, err = osr.NewBatch(inputs, rng)
			return err
		}},
		{name: "ot.ext_query", parent: recvNew, probe: true, run: func() (err error) {
			oquery, otReq, err = ot.NewExtKofNBatchQuery(iknpR, total, indices)
			return err
		}},
		{name: sendHan, parent: handle, probe: true, run: func() error {
			_, err := oss.HandleBatch(oreq, rng)
			return err
		}},
		{name: "ot.ext_respond", parent: sendHan, probe: true, run: func() (err error) {
			otResp, err = ot.ExtKofNBatchRespond(iknpS, otReq, msgs, rng)
			return err
		}},
		{name: "ot.ext_recover", parent: finish, probe: true, run: func() error {
			_, err := oquery.Recover(otResp)
			return err
		}},
		{name: "poly.interpolate", parent: finish, probe: true, run: interpolate},
		{name: "field.limb_mul", probe: true, run: mulLimb},
		{name: "field.big_mul", probe: true, run: mulBig},
		{name: "transport.frame_echo", probe: true, run: func() error { return echo(resp) }},
	}
	l := ledger{name: "stream", per: batch, steps: steps, close: closeEcho}
	// One untimed pass fills in the counts that need a message in hand.
	for _, st := range steps {
		if err := st.run(); err != nil {
			closeEcho()
			return ledger{}, nil, fmt.Errorf("stream ledger: %s: %w", st.name, err)
		}
	}
	counts.choiceBits = otReq.IKNP.M / batch
	counts.requestBytes = float64(len(reqBytes)) / float64(batch)
	counts.responseBytes = float64(len(respBytes)) / float64(batch)
	return l, counts, nil
}

// fieldMuls is how many multiplications one field.*_mul probe times.
const fieldMuls = 256

// interpolateProbe interpolates a batch of samples at zero over m nodes
// each, on the session's field engine.
func interpolateProbe(params ompe.Params, batch, m int, rng io.Reader) (func() error, error) {
	if params.Backend.OrDefault() == field.BackendLimb {
		nodes := make([]poly.LimbNodes, batch)
		for b := range nodes {
			nodes[b] = poly.LimbNodes{Xs: make([]limb.Element, m), Ys: make([]limb.Element, m)}
			for j := 0; j < m; j++ {
				nodes[b].Xs[j].SetUint64(uint64(b*m + j + 1))
				if err := nodes[b].Ys[j].Rand(rng); err != nil {
					return nil, err
				}
			}
		}
		out := make([]limb.Element, batch)
		var ip poly.LimbInterpolator
		return func() error { return ip.AtZeroBatch(nodes, out) }, nil
	}
	f := params.Field
	points := make([][]poly.Point, batch)
	for b := range points {
		points[b] = make([]poly.Point, m)
		for j := range points[b] {
			y, err := f.Rand(rng)
			if err != nil {
				return nil, err
			}
			points[b][j] = poly.Point{X: big.NewInt(int64(b*m + j + 1)), Y: y}
		}
	}
	return func() error {
		for _, ps := range points {
			if _, err := poly.InterpolateAtZero(f, ps); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// fieldMulProbes time fieldMuls dependent multiplications on the limb
// engine and on math/big over the session's field.
func fieldMulProbes(f *field.Field, rng io.Reader) (mulLimb, mulBig func() error, err error) {
	var x, y limb.Element
	if err := x.RandNonZero(rng); err != nil {
		return nil, nil, err
	}
	if err := y.RandNonZero(rng); err != nil {
		return nil, nil, err
	}
	a, err := f.RandNonZero(rng)
	if err != nil {
		return nil, nil, err
	}
	b, err := f.RandNonZero(rng)
	if err != nil {
		return nil, nil, err
	}
	mulLimb = func() error {
		for i := 0; i < fieldMuls; i++ {
			x.Mul(&x, &y)
		}
		return nil
	}
	mulBig = func() error {
		for i := 0; i < fieldMuls; i++ {
			a = f.Mul(a, b)
		}
		return nil
	}
	return mulLimb, mulBig, nil
}

// frameEcho sends a message through transport.Conn over loopback TCP to
// a peer that sends it straight back.
func frameEcho() (echo func(*ompe.FastBatchResponse) error, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		peer := transport.NewConn(nc)
		defer func() { _ = peer.Close() }()
		if peer.UseCodec(transport.CodecBinary) != nil {
			return
		}
		for {
			msg, err := transport.Recv[*ompe.FastBatchResponse](peer)
			if err != nil || peer.Send(msg) != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		<-done
		return nil, nil, err
	}
	conn := transport.NewConn(nc)
	stop = func() {
		_ = conn.Close()
		_ = ln.Close()
		<-done
	}
	if err := conn.UseCodec(transport.CodecBinary); err != nil {
		stop()
		return nil, nil, err
	}
	echo = func(msg *ompe.FastBatchResponse) error {
		if err := conn.Send(msg); err != nil {
			return err
		}
		_, err := transport.Recv[*ompe.FastBatchResponse](conn)
		return err
	}
	return echo, stop, nil
}

// --- session ledger --------------------------------------------------

// sessionCounts are the byte counts of one stepped session.
type sessionCounts struct {
	ticketBytes             int
	bytesFull, bytesResumed int64
}

// sessionLedger replays one full handshake in process, step by step, and
// then opens real sessions straight to a replica and through a gateway,
// with and without a ticket.
func (s *stack) sessionLedger() (ledger, *sessionCounts, error) {
	trainer := s.reg.CurrentTrainer()
	spec := s.spec
	rng := entropy.Buffered(rand.Reader)
	ctx := context.Background()
	if s.gw == nil {
		// A workload without a gateway gets one in front of its server, for
		// the ledger's via-gateway sessions; close stops it with the rest.
		if err := s.startGateway(); err != nil {
			return ledger{}, nil, err
		}
	}
	samples, want := s.ring[:sessionSamples], s.labels[:sessionSamples]
	counts := &sessionCounts{}
	var wire atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		nc, err := transport.DialContext(ctx, addr, s.opts)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: nc, total: &wire}, nil
	}
	offer := s.opts
	offer.OfferResume = true

	var (
		fc     *classify.FastClient
		ft     *classify.FastTrainer
		setup  *ot.IKNPBaseSetup
		choice *ot.IKNPBaseChoice
		tr     *ot.IKNPBaseTransfer
		sst    *ot.IKNPSenderState
		rst    *ot.IKNPReceiverState
		nc     net.Conn
		cl     *transport.FastClassifyClient
		ticket = map[string]*transport.ResumeState{}
		opened int64
	)
	// open times dialling addr, shake the handshake on that connection,
	// classifyAll the session's samples, and closeSession the close that
	// brings the next ticket back. The client's handshake returns when it
	// has sent its last base-OT message, so the server's FinishBase is paid
	// by the first batch: queries_full minus queries_resumed shows it.
	open := func(addr string) func() error {
		return func() (err error) {
			opened = wire.Load()
			nc, err = dial(addr)
			return err
		}
	}
	shake := func(route string, resume bool) func() error {
		return func() (err error) {
			opts := offer
			if resume {
				opts.Resume = ticket[route]
				if opts.Resume == nil {
					return errors.New("no ticket to resume with")
				}
			}
			cl, err = transport.NewFastClassifyClientContext(ctx, nc, opts, rng)
			if err != nil {
				_ = nc.Close()
				return err
			}
			if cl.Resumed() != resume {
				return fmt.Errorf("session resumed = %v, want %v", cl.Resumed(), resume)
			}
			return nil
		}
	}
	classifyAll := func() error {
		got, err := cl.ClassifyPipelined(ctx, samples, sessionBatch, sessionInflight)
		if err != nil {
			return err
		}
		return checkLabels(got, want)
	}
	closeSession := func(route string, bytes *int64) func() error {
		return func() error {
			if err := cl.Close(); err != nil {
				return err
			}
			ticket[route] = cl.ResumeState()
			if ticket[route] == nil {
				return errors.New("session closed without a ticket")
			}
			counts.ticketBytes = len(ticket[route].Ticket)
			if bytes != nil {
				*bytes = wire.Load() - opened
			}
			return nil
		}
	}
	var k big.Int
	k.SetBytes([]byte("the harness's scalar for unit costs"))
	base := ec25519.Basepoint()
	var pt ec25519.Point

	steps := []step{
		{name: "ot.base_client_setup", run: func() (err error) {
			fc, setup, err = classify.NewFastClient(spec, rng)
			return err
		}},
		{name: "ot.base_server_choice", run: func() (err error) {
			ft, choice, err = trainer.NewFastSessionFor(spec, setup, rng)
			return err
		}},
		{name: "ot.base_client_finish", run: func() (err error) {
			tr, err = fc.FinishBase(choice, rng)
			return err
		}},
		{name: "ot.base_server_finish", run: func() error { return ft.FinishBase(tr) }},
		{name: "classify.snapshot", run: func() (err error) {
			if sst, err = ft.Snapshot(); err != nil {
				return err
			}
			rst, err = fc.Snapshot()
			return err
		}},
		{name: "classify.resume_client", run: func() error {
			_, err := classify.ResumeFastClient(spec, rst)
			return err
		}},
		{name: "classify.resume_server", run: func() error {
			_, err := trainer.ResumeFastSessionFor(spec, sst)
			return err
		}},

		{name: "transport.dial_direct", probe: true, run: open(s.addrs[0])},
		{name: "transport.handshake_full", probe: true, run: shake("direct", false)},
		{name: "transport.queries_full", probe: true, run: classifyAll},
		{name: "transport.close", probe: true, run: closeSession("direct", &counts.bytesFull)},
		{name: "transport.dial_direct", probe: true, run: open(s.addrs[0])},
		{name: "transport.handshake_resumed", probe: true, run: shake("direct", true)},
		{name: "transport.queries_resumed", probe: true, run: classifyAll},
		{name: "transport.close", probe: true, run: closeSession("direct", &counts.bytesResumed)},
		{name: "gateway.dial", probe: true, run: open(s.gwAddr)},
		{name: "gateway.handshake_full", probe: true, run: shake("gateway", false)},
		{name: "transport.close", probe: true, prep: classifyAll, run: closeSession("gateway", nil)},
		{name: "gateway.dial", probe: true, run: open(s.gwAddr)},
		{name: "gateway.handshake_resumed", probe: true, run: shake("gateway", true)},
		{name: "transport.close", probe: true, prep: classifyAll, run: closeSession("gateway", nil)},

		{name: "ec25519.scalar_mult", probe: true, run: func() error {
			pt.ScalarMult(&k, &base)
			return nil
		}},
		{name: "ec25519.scalar_base_mult", probe: true, run: func() error {
			pt.ScalarBaseMult(&k)
			return nil
		}},
	}
	return ledger{name: "session", per: 1, steps: steps}, counts, nil
}

// --- similarity ledger -----------------------------------------------

// similarityLedger replays one private similarity evaluation in process:
// both set-ups, then the three OMPE rounds, with bare k-of-n transfers of
// each round's shape as probes.
func (s *stack) similarityLedger(seed uint64) (ledger, error) {
	alice, bob, simCfg, simT := s.alice, s.bob, s.simCfg, s.simT
	if s.w.kind != kindSimilarity {
		// Any workload can replay the similarity ledger: it needs two
		// hyperplanes, not the stack's model.
		pick := mrand.New(mrand.NewPCG(seed, 3))
		alice, bob = randomPlane(pick, 8), randomPlane(pick, 8)
		simCfg = similarity.Params{Group: ot.X25519(), Parallelism: 1}
		clear, err := similarity.EvaluateLinear(alice.w, alice.b, bob.w, bob.b, similarity.DefaultMetric())
		if err != nil {
			return ledger{}, err
		}
		simT = clear.T
	}
	rng := entropy.Buffered(rand.Reader)
	var (
		a      *similarity.Alice
		b      *similarity.Bob
		result *similarity.Result
	)
	round := func(r similarity.Round) func() error {
		return func() error {
			req, err := b.StartRound(r, rng)
			if err != nil {
				return err
			}
			setup, err := a.HandleRequest(r, req, rng)
			if err != nil {
				return err
			}
			choice, err := b.HandleSetup(r, setup, rng)
			if err != nil {
				return err
			}
			tr, err := a.HandleChoice(r, choice, rng)
			if err != nil {
				return err
			}
			result, err = b.FinishRound(r, tr)
			return err
		}
	}
	// kofn times a bare k-of-n transfer of a round's shape: m = degree·q + 1
	// of M = m·k messages one field element long, all read from Alice's
	// published spec once the chain has built her.
	kofn := func(degree int) func() error {
		var (
			group   ot.Group
			msgs    [][]byte
			indices []int
		)
		return func() (err error) {
			if msgs == nil {
				spec := a.Spec()
				if group, err = ot.GroupByName(spec.GroupName); err != nil {
					return err
				}
				m := degree*spec.MaskDegree + 1
				msgs = make([][]byte, m*spec.CoverFactor)
				for i := range msgs {
					msgs[i] = make([]byte, (spec.FieldBits+7)/8)
				}
				indices = mrand.New(mrand.NewPCG(4, 5)).Perm(len(msgs))[:m]
			}
			_, err = ot.TransferKofN(group, msgs, indices, rng)
			return err
		}
	}
	steps := []step{
		{name: "similarity.alice_setup", run: func() (err error) {
			a, err = similarity.NewAlice(alice.w, alice.b, simCfg, rng)
			return err
		}},
		{name: "similarity.bob_setup", run: func() (err error) {
			if b, err = similarity.NewBob(a.Spec(), bob.w, bob.b); err != nil {
				return err
			}
			b.SetParallelism(1)
			return a.HandleClearShare(b.ClearShare())
		}},
		{name: "similarity.round_centroid", run: round(similarity.RoundCentroid)},
		{name: "similarity.round_normal", run: round(similarity.RoundNormal)},
		{name: "similarity.round_area", run: func() error {
			if err := round(similarity.RoundArea)(); err != nil {
				return err
			}
			return s.checkSimilarity(result.T, simT)
		}},
		{name: "ot.kofn_dot", parent: "similarity.round_centroid", probe: true, run: kofn(1)},
		{name: "ot.kofn_area", parent: "similarity.round_area", probe: true, run: kofn(4)},
	}
	return ledger{name: "similarity", per: 1, steps: steps}, nil
}

func randomPlane(r *mrand.Rand, dim int) linearModel {
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.Float64()*2 - 1
	}
	return linearModel{w: w, b: 0.2 * (r.Float64()*2 - 1)}
}
