package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/entropy"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/wire"
)

// Wire aliases for the protocol message types.
type (
	evalRequest   = ompe.EvalRequest
	batchChoice   = ot.BatchChoice
	batchSetup    = ot.BatchSetup
	batchTransfer = ot.BatchTransfer
)

// TrainerSource supplies the trainer a new session binds to. A static
// source (one fixed trainer) is what NewServer installs; a model
// registry implements the same interface to hot-swap models — each
// session captures the source's current trainer exactly once at
// handshake time and keeps it for its whole lifetime, so a swap never
// tears a session between two models, and in-flight sessions drain on
// the version they started with.
type TrainerSource interface {
	CurrentTrainer() *classify.Trainer
}

// StaticTrainer adapts a fixed trainer to the TrainerSource interface.
type StaticTrainer struct{ Trainer *classify.Trainer }

// CurrentTrainer implements TrainerSource.
func (s StaticTrainer) CurrentTrainer() *classify.Trainer { return s.Trainer }

// Server hosts a trainer's protocol endpoints: privacy-preserving
// classification (the IKNP session) and, when enabled,
// linear and kernelized similarity evaluation. It serves concurrent
// sessions, one goroutine per connection.
type Server struct {
	source TrainerSource

	// simWeights/simBias enable the linear similarity service when set.
	simWeights []float64
	simBias    float64
	simParams  similarity.Params
	simEnabled bool

	// kernelSimEnabled enables the kernelized similarity service for the
	// trainer's own (polynomial-kernel) model.
	kernelSimParams  similarity.Params
	kernelSimEnabled bool

	// MessageDeadline bounds each message exchange (default
	// DefaultMessageDeadline; set to NoDeadline to disable).
	MessageDeadline time.Duration
	// MaxSessions caps concurrent sessions; connections beyond the cap
	// are rejected with ErrServerBusy. Zero means unlimited.
	MaxSessions int
	// Logf logs session-level events (default log.Printf; set to a no-op
	// for quiet operation).
	Logf func(format string, args ...any)
	// Rand is the entropy source (default crypto/rand.Reader).
	Rand io.Reader

	// ticketOnce lazily builds the per-process ticket mint from Rand the
	// first time a session mints or validates; servers that never see a
	// resumption offer never draw the key (fixed-rand golden sessions
	// stay byte-identical).
	ticketOnce sync.Once
	tick       *ticketer
	tickErr    error

	mu       sync.Mutex
	wg       sync.WaitGroup
	ln       net.Listener
	closed   bool
	sessions map[io.Closer]struct{}
}

// ErrServerBusy is reported to clients rejected by the MaxSessions cap.
var ErrServerBusy = errors.New("server at capacity")

// ErrShuttingDown is reported to clients that connect while the server
// drains.
var ErrShuttingDown = errors.New("server shutting down")

// NewServer builds a server around a fixed classification trainer.
func NewServer(trainer *classify.Trainer) *Server {
	return NewServerSource(StaticTrainer{trainer})
}

// NewServerSource builds a server whose sessions bind to whatever
// trainer the source publishes at their handshake (see TrainerSource).
func NewServerSource(source TrainerSource) *Server {
	return &Server{
		source:          source,
		MessageDeadline: DefaultMessageDeadline,
		Logf:            log.Printf,
		Rand:            rand.Reader,
		sessions:        make(map[io.Closer]struct{}),
	}
}

// EnableSimilarity adds the linear similarity service for the given model.
func (s *Server) EnableSimilarity(w []float64, b float64, params similarity.Params) {
	s.simWeights = append([]float64(nil), w...)
	s.simBias = b
	s.simParams = params
	s.simEnabled = true
}

// EnableKernelSimilarity adds the kernelized (§V-C) similarity service for
// the trainer's own polynomial-kernel model.
func (s *Server) EnableKernelSimilarity(params similarity.Params) {
	s.kernelSimParams = params
	s.kernelSimEnabled = true
}

// Serve accepts sessions on the listener until Close. It returns
// net.ErrClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// register admits a new session, enforcing the drain state and the
// MaxSessions cap. The session waitgroup counts admitted sessions only,
// and additions happen under the same lock that Close/Shutdown use to
// flip the drain flag, so the Add/Wait race is excluded by construction.
func (s *Server) register(rw io.ReadWriteCloser) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		obs.Add(obs.CtrSessionsRejected, 1)
		return ErrShuttingDown
	}
	if s.MaxSessions > 0 && len(s.sessions) >= s.MaxSessions {
		obs.Add(obs.CtrSessionsRejected, 1)
		return ErrServerBusy
	}
	s.sessions[rw] = struct{}{}
	s.wg.Add(1)
	obs.Add(obs.CtrSessionsServed, 1)
	obs.Set(obs.GaugeSessionsActive, int64(len(s.sessions)))
	return nil
}

func (s *Server) deregister(rw io.ReadWriteCloser) {
	s.mu.Lock()
	delete(s.sessions, rw)
	obs.Set(obs.GaugeSessionsActive, int64(len(s.sessions)))
	s.mu.Unlock()
	s.wg.Done()
}

// ActiveSessions reports the number of sessions currently being served.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops accepting and waits for in-flight sessions to drain, with
// no bound on the wait. Use Shutdown to bound it.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown gracefully stops the server: it closes the listener, rejects
// new sessions with ErrShuttingDown, and waits for in-flight sessions to
// finish. If ctx expires first, the remaining sessions' connections are
// force-closed (their peers see a stream error) and ctx.Err() is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
		s.mu.Lock()
		obs.Add(obs.CtrSessionsDrained, int64(len(s.sessions)))
		for rw := range s.sessions {
			_ = rw.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ServeConn runs one session on an established byte stream (exported so
// tests can drive net.Pipe).
func (s *Server) ServeConn(rw io.ReadWriteCloser) {
	s.serveConn(rw)
}

func (s *Server) serveConn(rw io.ReadWriteCloser) {
	conn := newConnRole(rw, roleServer)
	deadline := s.MessageDeadline
	if deadline < 0 {
		deadline = 0
	}
	conn.SetMessageDeadline(deadline)
	if err := s.register(rw); err != nil {
		// Drain the client's Hello first (over synchronous in-memory
		// pipes, writing before reading would deadlock both sides), then
		// answer it with the rejection; the client's handshake Recv
		// surfaces it as ErrRemote.
		s.logf("transport: reject session: %v", err)
		_, _ = Recv[*Hello](conn)
		_ = conn.SendErr(err)
		_ = conn.Close()
		return
	}
	defer s.deregister(rw)
	defer func() {
		if err := conn.Close(); err != nil && s.Logf != nil {
			s.Logf("transport: close session: %v", err)
		}
	}()
	hello, err := Recv[*Hello](conn)
	if err != nil {
		s.logf("transport: handshake: %v", err)
		if errors.Is(err, wire.ErrInvalid) || errors.Is(err, wire.ErrTrailing) || errors.Is(err, wire.ErrTruncated) {
			// A whole Hello frame that does not decode (an older
			// peer's layout, say) is refused in words, so the peer
			// fails at once instead of at its deadline.
			_ = conn.SendErr(err)
		}
		return
	}
	// One buffered entropy reader per session: every serve path draws
	// randomness from a single goroutine at a time, so the (unsynchronized)
	// buffer is safe here and turns per-draw getrandom syscalls into a few
	// page-sized reads.
	rng := entropy.Buffered(s.Rand)
	if hello.Service == "resume-info" {
		// Fleet whoami: answer with this process's ticket mint identity so
		// a gateway can steer ticket-bearing redials here. Needs no model.
		tick, err := s.ticketer()
		if err != nil {
			s.logf("transport: resume-info: %v", err)
			_ = conn.SendErr(err)
			return
		}
		_ = conn.Send(&ResumeInfo{MintID: append([]byte(nil), tick.mintID[:]...)})
		return
	}
	// Capture the session's trainer exactly once: every protocol step of
	// this session — specs, fast sessions, kernel similarity — derives
	// from this one value, so a registry hot-swap concurrent with the
	// session can never mix model versions.
	trainer := s.source.CurrentTrainer()
	if trainer == nil {
		err := errors.New("transport: no model published")
		s.logf("transport: reject session: %v", err)
		_ = conn.SendErr(err)
		return
	}
	switch hello.Service {
	case "similarity-linear":
		var alice *similarity.Alice
		if alice, err = s.linearAlice(rng); err == nil {
			err = serveSimilarity(conn, alice, rng)
		}
	case "similarity-kernel":
		var alice *similarity.KernelAlice
		if alice, err = s.kernelAlice(trainer, rng); err == nil {
			err = serveSimilarity(conn, alice, rng)
		}
	case "classify-fast":
		err = s.serveClassifyFast(conn, trainer, hello, rng)
	default:
		err = fmt.Errorf("unknown service %q", hello.Service)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		s.logf("transport: session (%s): %v", hello.Service, err)
		_ = conn.SendErr(err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ticketer lazily builds the per-process ticket mint (see Server field
// docs).
func (s *Server) ticketer() (*ticketer, error) {
	s.ticketOnce.Do(func() {
		s.tick, s.tickErr = newTicketer(s.Rand, DefaultTicketTTL)
	})
	return s.tick, s.tickErr
}

// grantResume resolves a presented ticket against the spec this session
// would otherwise negotiate. Every failure is a silent decline — the
// session proceeds as a full handshake — because stale tickets are the
// expected steady state (expiry, replica restarts, model swaps), not a
// protocol violation.
func (s *Server) grantResume(hello *Hello, spec classify.Spec) *ot.IKNPSenderState {
	if len(hello.ResumeTicket) == 0 {
		return nil
	}
	tick, err := s.ticketer()
	if err != nil {
		obs.Add(obs.CtrResumeRejected, 1)
		s.logf("transport: decline resumption: %v", err)
		return nil
	}
	st, err := tick.validate(hello.ResumeTicket, hello.Service, specResumeSum(spec))
	if err != nil {
		obs.Add(obs.CtrResumeRejected, 1)
		s.logf("transport: decline resumption: %v", err)
		return nil
	}
	return st
}

// mintTicket seals this session's final OT position into a ticket and
// sends it (the answer to the client's Done). Mint failures are logged
// and swallowed: the client simply redials with a full handshake.
func (s *Server) mintTicket(conn *Conn, fast *classify.FastTrainer, spec classify.Spec, rng io.Reader) {
	tick, err := s.ticketer()
	if err != nil {
		s.logf("transport: mint ticket: %v", err)
		return
	}
	st, err := fast.Snapshot()
	if err != nil {
		s.logf("transport: mint ticket: %v", err)
		return
	}
	ticket, err := tick.mint(rng, "classify-fast", specResumeSum(spec), st)
	if err != nil {
		s.logf("transport: mint ticket: %v", err)
		return
	}
	if err := conn.Send(&SessionTicket{Ticket: ticket}); err == nil {
		obs.Add(obs.CtrTicketsMinted, 1)
	}
}

// linearAlice builds Alice for one linear similarity evaluation.
func (s *Server) linearAlice(rng io.Reader) (*similarity.Alice, error) {
	if !s.simEnabled {
		return nil, errors.New("similarity service not enabled")
	}
	return similarity.NewAlice(s.simWeights, s.simBias, s.simParams, rng)
}

// kernelAlice builds Alice for one kernelized similarity evaluation of
// the session's trainer model.
func (s *Server) kernelAlice(trainer *classify.Trainer, rng io.Reader) (*similarity.KernelAlice, error) {
	if !s.kernelSimEnabled {
		return nil, errors.New("kernel similarity service not enabled")
	}
	return similarity.NewKernelAlice(trainer.Model(), s.kernelSimParams, rng)
}

// similarityAlice is Alice's side of either §V variant: her public spec
// of type S, Bob's clear share of type C, then the shared round machine.
type similarityAlice[S, C any] interface {
	Spec() S
	HandleClearShare(C) error
	NextRound() similarity.Round
	HandleRequest(similarity.Round, *evalRequest, io.Reader) (*batchSetup, error)
	HandleChoice(similarity.Round, *batchChoice, io.Reader) (*batchTransfer, error)
}

// serveSimilarity runs one similarity evaluation of either variant as
// Alice: spec, clear share, then Bob's OMPE rounds in the order her round
// machine expects them. Neither side announces a round: both derive the
// sequence from the spec and |S_B|, so the typed Recv of each step is the
// order check. After the area round Bob, holding T², hangs up; anything
// else he sends is refused with ErrRound. The peer's declared counts never
// size anything here: each RoundNormal instance costs the peer its own
// four messages.
func serveSimilarity[S, C any](conn *Conn, alice similarityAlice[S, C], rng io.Reader) error {
	spec := alice.Spec()
	if err := conn.Send(&spec); err != nil {
		return err
	}
	clear, err := Recv[C](conn)
	if err != nil {
		return err
	}
	if err := alice.HandleClearShare(clear); err != nil {
		return err
	}
	for {
		req, err := Recv[*evalRequest](conn)
		if errors.Is(err, io.EOF) && alice.NextRound() > similarity.RoundArea {
			return nil
		}
		if err != nil {
			return err
		}
		round := alice.NextRound()
		setup, err := alice.HandleRequest(round, req, rng)
		if err != nil {
			return err
		}
		if err := conn.Send(setup); err != nil {
			return err
		}
		choice, err := Recv[*batchChoice](conn)
		if err != nil {
			return err
		}
		tr, err := alice.HandleChoice(round, choice, rng)
		if err != nil {
			return err
		}
		if err := conn.Send(tr); err != nil {
			return err
		}
	}
}

// fastJob is one queued fast-session batch with its stream tag; the
// worker fills in the response.
type fastJob struct {
	stream uint32
	req    *ompe.FastBatchRequest
	resp   *ompe.FastBatchResponse
}

// fastJobQueue bounds how many pipelined requests the session worker
// buffers; past this the reader applies backpressure by not reading.
const fastJobQueue = 64

// serveClassifyFast runs an IKNP fast session: one base phase, then any
// number of two-message classification batches (a single classification
// is a batch of one) until Done or EOF. A reader goroutine keeps draining
// requests while a single worker evaluates them in arrival order —
// pipelined clients are never blocked on the server's crypto, and FIFO
// answering keeps the OT-extension batch counters in lockstep.
func (s *Server) serveClassifyFast(conn *Conn, trainer *classify.Trainer, hello *Hello, rng io.Reader) error {
	spec := trainer.Spec()
	resumeState := s.grantResume(hello, spec)
	spec.ResumeGranted = resumeState != nil
	if err := conn.Send(&spec); err != nil {
		return err
	}
	var fast *classify.FastTrainer
	var err error
	if resumeState != nil {
		// The κ base OTs are skipped entirely: the extension sender is
		// rebuilt from the ticket's snapshot, counters carried forward,
		// and bound to the CURRENT trainer (a hot-swapped model with an
		// unchanged contract serves the new version).
		fast, err = trainer.ResumeFastSessionFor(spec, resumeState)
		if err != nil {
			return err
		}
		obs.Add(obs.CtrSessionsResumed, 1)
	} else {
		setup, err := Recv[*ot.BatchSetup](conn)
		if err != nil {
			return err
		}
		var choice *ot.BatchChoice
		fast, choice, err = trainer.NewFastSessionFor(spec, setup, rng)
		if err != nil {
			return err
		}
		if err := conn.Send(choice); err != nil {
			return err
		}
		baseTr, err := Recv[*ot.BatchTransfer](conn)
		if err != nil {
			return err
		}
		if err := fast.FinishBase(baseTr); err != nil {
			return err
		}
	}

	jobs := make(chan fastJob, fastJobQueue)
	workerErr := make(chan error, 1)
	go func() {
		err := s.runFastWorker(conn, fast, jobs, rng)
		if err != nil {
			// Report to the peer now rather than after session teardown:
			// the client abandons the session and closes, which also
			// unblocks this session's reader.
			_ = conn.SendErr(err)
		}
		workerErr <- err
		// Keep draining so the reader's send never blocks after a failure.
		for range jobs {
		}
	}()

	var readErr error
readLoop:
	for {
		select {
		case werr := <-workerErr:
			close(jobs)
			return werr
		default:
		}
		payload, stream, err := conn.recvStreamAny()
		if err != nil {
			readErr = err
			break
		}
		switch msg := payload.(type) {
		case *Done:
			break readLoop
		case *ompe.FastBatchRequest:
			jobs <- fastJob{stream: stream, req: msg}
		default:
			readErr = fmt.Errorf("transport: unexpected message %T", payload)
			break readLoop
		}
	}
	close(jobs)
	werr := <-workerErr
	if readErr != nil {
		return readErr
	}
	if werr != nil {
		return werr
	}
	// Clean Done: honor a standing mint request. The worker has exited, so
	// the session's OT position is quiescent and safe to snapshot.
	if hello.ResumeOffered {
		s.mintTicket(conn, fast, spec, rng)
	}
	return nil
}

// fastReadyQueue bounds how many computed responses may wait behind the
// flusher: one in flight on the wire plus one buffered keeps the worker
// computing batch N+1 while batch N's frame is still being written,
// without letting responses pile up unboundedly.
const fastReadyQueue = 2

// runFastWorker evaluates queued fast-session jobs in FIFO order and
// hands each computed response to a flusher goroutine that writes it
// tagged with its request's stream ID. The compute→flush split
// double-buffers the session: encoding and socket writes of response N
// overlap the crypto of request N+1, while the single flusher preserves
// the FIFO response order the OT-extension batch counters require. It
// returns on the first failure or when the job channel closes.
func (s *Server) runFastWorker(conn *Conn, fast *classify.FastTrainer, jobs <-chan fastJob, rng io.Reader) error {
	ready := make(chan fastJob, fastReadyQueue)
	var flushErr error
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		for r := range ready {
			if flushErr != nil {
				continue // keep draining so the worker's send never blocks
			}
			flushErr = conn.SendStream(r.stream, r.resp)
		}
	}()
	var workErr error
	for j := range jobs {
		obs.Observe(obs.HistBatchSize, int64(len(j.req.Evals)))
		j.resp, workErr = fast.HandleBatch(j.req, rng)
		if workErr != nil {
			break
		}
		ready <- j
	}
	// Close the ready queue and let already-computed responses flush
	// before reporting: the peer sees every answer that precedes a
	// failure, in order, then the error frame.
	close(ready)
	<-flushDone
	if workErr != nil {
		return workErr
	}
	return flushErr
}
