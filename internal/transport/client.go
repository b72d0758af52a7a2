package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/classify"
	"repro/internal/entropy"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
)

// EvaluateSimilarityContext runs a full linear similarity evaluation as
// Bob against a server hosting model A, using Bob's own model (wB, bB),
// with per-message deadlines from opts and cancellation via ctx.
func EvaluateSimilarityContext(ctx context.Context, rw io.ReadWriteCloser, wB []float64, bB float64, opts Options, rng io.Reader) (*similarity.Result, error) {
	return evaluateSimilarity(ctx, rw, "similarity-linear", opts, rng, func(spec *similarity.Spec) (*similarity.Bob, error) {
		return similarity.NewBob(*spec, wB, bB)
	})
}

// EvaluateKernelSimilarityContext runs a full kernelized similarity
// evaluation as Bob against a server hosting a polynomial-kernel model,
// using Bob's own model, with per-message deadlines from opts and
// cancellation via ctx.
func EvaluateKernelSimilarityContext(ctx context.Context, rw io.ReadWriteCloser, modelB *svm.Model, opts Options, rng io.Reader) (*similarity.Result, error) {
	return evaluateSimilarity(ctx, rw, "similarity-kernel", opts, rng, func(spec *similarity.KernelSpec) (*similarity.KernelBob, error) {
		return similarity.NewKernelBob(*spec, modelB)
	})
}

// similarityBob is Bob's side of either §V variant: the clear share of
// type C he sends, then the shared round machine.
type similarityBob[C any] interface {
	ClearShare() C
	NextRound() similarity.Round
	StartRound(similarity.Round, io.Reader) (*evalRequest, error)
	HandleSetup(similarity.Round, *batchSetup, io.Reader) (*batchChoice, error)
	FinishRound(similarity.Round, *batchTransfer) (*similarity.Result, error)
}

// evaluateSimilarity runs one similarity evaluation of either variant as
// Bob: Hello, Alice's spec of type S (newBob builds Bob from it), the
// clear share, then his OMPE rounds in the order his round machine
// reports; the final round yields the result.
func evaluateSimilarity[S, C any, B similarityBob[C]](ctx context.Context, rw io.ReadWriteCloser, service string, opts Options, rng io.Reader, newBob func(S) (B, error)) (*similarity.Result, error) {
	rng = entropy.Buffered(rng)
	conn := newConnRole(rw, roleClient)
	conn.SetMessageDeadline(opts.messageDeadline())
	defer func() { _ = conn.Close() }()
	var result *similarity.Result
	err := conn.RunContext(ctx, func() error {
		if err := opts.sendHello(conn, &Hello{Service: service}); err != nil {
			return err
		}
		spec, err := Recv[S](conn)
		if err != nil {
			return err
		}
		bob, err := newBob(spec)
		if err != nil {
			return err
		}
		if err := conn.Send(bob.ClearShare()); err != nil {
			return err
		}
		for round := bob.NextRound(); round <= similarity.RoundArea; round = bob.NextRound() {
			req, err := bob.StartRound(round, rng)
			if err != nil {
				return err
			}
			if err := conn.Send(req); err != nil {
				return err
			}
			setup, err := Recv[*batchSetup](conn)
			if err != nil {
				return err
			}
			choice, err := bob.HandleSetup(round, setup, rng)
			if err != nil {
				return err
			}
			if err := conn.Send(choice); err != nil {
				return err
			}
			tr, err := Recv[*batchTransfer](conn)
			if err != nil {
				return err
			}
			if result, err = bob.FinishRound(round, tr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// DialSimilarity runs a similarity evaluation against a TCP server,
// retrying the dial with the default backoff policy.
func DialSimilarity(addr string, wB []float64, bB float64, timeout time.Duration, rng io.Reader) (*similarity.Result, error) {
	return DialSimilarityContext(context.Background(), addr, wB, bB, Options{DialTimeout: timeout}, rng)
}

// DialSimilarityContext dials with retry/backoff per opts and runs the
// evaluation under ctx.
func DialSimilarityContext(ctx context.Context, addr string, wB []float64, bB float64, opts Options, rng io.Reader) (*similarity.Result, error) {
	nc, err := dialRetry(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	return EvaluateSimilarityContext(ctx, nc, wB, bB, opts, rng)
}

// FastClassifyClient drives the IKNP fast classification session over a
// connection: one base phase at dial time, then two messages per batch (a
// single classification is a batch of one).
type FastClassifyClient struct {
	conn    *Conn
	session *classify.FastClient
	rand    io.Reader

	// resumeOffered records that the Hello asked for a ticket; Close then
	// waits for the server's SessionTicket answer to its Done.
	resumeOffered bool
	// resumed reports whether this session skipped the base phase.
	resumed bool
	// specSum digests the negotiated contract (for the next ticket).
	specSum []byte
	// resumeState is the harvested state after a clean Close.
	resumeState *ResumeState
}

// Resumed reports whether this session restored a ticket and skipped the
// base OT phase.
func (c *FastClassifyClient) Resumed() bool { return c.resumed }

// ResumeState returns the resumption state harvested at Close (nil when
// no ticket was offered, granted by the server, or delivered). The state
// is single-use: present it on exactly one redial.
func (c *FastClassifyClient) ResumeState() *ResumeState { return c.resumeState }

// Spec reports the session spec the server sent, including the
// resumption outcome.
func (c *FastClassifyClient) Spec() classify.Spec { return c.session.Spec() }

// NewFastClassifyClientContext performs the handshake and base phase on
// an established stream under ctx and opts.
func NewFastClassifyClientContext(ctx context.Context, rw io.ReadWriteCloser, opts Options, rng io.Reader) (*FastClassifyClient, error) {
	rng = entropy.Buffered(rng)
	conn := newConnRole(rw, roleClient)
	conn.SetMessageDeadline(opts.messageDeadline())
	var session *classify.FastClient
	offerResume := opts.OfferResume || opts.Resume != nil
	var specSum []byte
	resumed := false
	start := time.Now()
	err := conn.RunContext(ctx, func() error {
		hello := &Hello{Service: "classify-fast", ResumeOffered: offerResume}
		if opts.Resume != nil {
			hello.ResumeTicket = opts.Resume.Ticket
		}
		if err := opts.sendHello(conn, hello); err != nil {
			return err
		}
		spec, err := Recv[*classify.Spec](conn)
		if err != nil {
			return err
		}
		specSum = specResumeSum(*spec)
		if spec.ResumeGranted {
			if opts.Resume == nil {
				return fmt.Errorf("%w: server granted resumption that was never offered", ErrResume)
			}
			if !bytes.Equal(specSum, opts.Resume.SpecSum) {
				return fmt.Errorf("%w: granted contract diverges from the ticket's", ErrResume)
			}
			session, err = classify.ResumeFastClient(*spec, opts.Resume.Receiver)
			if err != nil {
				return err
			}
			resumed = true
			return nil
		}
		var setup *ot.BatchSetup
		session, setup, err = classify.NewFastClient(*spec, rng)
		if err != nil {
			return err
		}
		if err := conn.Send(setup); err != nil {
			return err
		}
		choice, err := Recv[*ot.BatchChoice](conn)
		if err != nil {
			return err
		}
		baseTr, err := session.FinishBase(choice, rng)
		if err != nil {
			return err
		}
		return conn.Send(baseTr)
	})
	if err != nil {
		return nil, err
	}
	if resumed {
		obs.Observe(obs.PhaseHandshakeResumed, time.Since(start).Nanoseconds())
	} else {
		obs.Observe(obs.PhaseHandshakeFull, time.Since(start).Nanoseconds())
	}
	return &FastClassifyClient{conn: conn, session: session, rand: rng, resumeOffered: offerResume, resumed: resumed, specSum: specSum}, nil
}

// DialClassifyFast connects over TCP and runs the base phase, retrying
// the dial with the default backoff policy.
func DialClassifyFast(addr string, timeout time.Duration, rng io.Reader) (*FastClassifyClient, error) {
	return DialClassifyFastContext(context.Background(), addr, Options{DialTimeout: timeout}, rng)
}

// DialClassifyFastContext dials with retry/backoff per opts and runs the
// base phase under ctx.
func DialClassifyFastContext(ctx context.Context, addr string, opts Options, rng io.Reader) (*FastClassifyClient, error) {
	nc, err := dialRetry(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	fc, err := NewFastClassifyClientContext(ctx, nc, opts, rng)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	return fc, nil
}

// Classify runs one classification as a batch of one.
func (c *FastClassifyClient) Classify(sample []float64) (int, error) {
	return c.ClassifyContext(context.Background(), sample)
}

// ClassifyContext is Classify under ctx.
func (c *FastClassifyClient) ClassifyContext(ctx context.Context, sample []float64) (int, error) {
	labels, err := c.ClassifyBatchContext(ctx, [][]float64{sample})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// Close ends the session cleanly. When the session offered resumption,
// Close waits for the server's ticket answer to the Done and harvests the
// ResumeState; a server that mints nothing just closes, which reads as
// "no ticket".
func (c *FastClassifyClient) Close() error {
	err := c.conn.Send(&Done{})
	if err == nil && c.resumeOffered {
		if ticket, terr := Recv[*SessionTicket](c.conn); terr == nil && len(ticket.Ticket) > 0 {
			if st, serr := c.session.Snapshot(); serr == nil {
				c.resumeState = &ResumeState{
					Ticket:   ticket.Ticket,
					Receiver: st,
					SpecSum:  c.specSum,
					Service:  "classify-fast",
				}
			}
		}
	}
	return c.conn.Close()
}

// DialKernelSimilarity runs a kernelized similarity evaluation against a
// TCP server, retrying the dial with the default backoff policy.
func DialKernelSimilarity(addr string, modelB *svm.Model, timeout time.Duration, rng io.Reader) (*similarity.Result, error) {
	return DialKernelSimilarityContext(context.Background(), addr, modelB, Options{DialTimeout: timeout}, rng)
}

// DialKernelSimilarityContext dials with retry/backoff per opts and runs
// the evaluation under ctx.
func DialKernelSimilarityContext(ctx context.Context, addr string, modelB *svm.Model, opts Options, rng io.Reader) (*similarity.Result, error) {
	nc, err := dialRetry(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	return EvaluateKernelSimilarityContext(ctx, nc, modelB, opts, rng)
}

// ClassifyBatchContext runs B fast-path classifications in one message
// pair under ctx, one pipelined batch: all B samples' choice bits ride a
// single OT-extension round.
func (c *FastClassifyClient) ClassifyBatchContext(ctx context.Context, samples [][]float64) ([]int, error) {
	return c.ClassifyPipelined(ctx, samples, len(samples), 1)
}

// ClassifyPipelined classifies all samples in batches of batchSize while
// keeping up to inflight batches outstanding on the connection. Requests
// are tagged with stream IDs; the server answers them in order (its
// session worker is single-threaded), so the window advances one response
// at a time while later batches are already on the wire — the round-trip
// latency of a batch overlaps the server's crypto for its predecessors.
func (c *FastClassifyClient) ClassifyPipelined(ctx context.Context, samples [][]float64, batchSize, inflight int) ([]int, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("transport: empty batch")
	}
	if batchSize < 1 {
		batchSize = 1
	}
	if inflight < 1 {
		inflight = 1
	}
	numBatches := (len(samples) + batchSize - 1) / batchSize
	labels := make([]int, 0, len(samples))
	err := c.conn.RunContext(ctx, func() error {
		type openBatch struct {
			batch  *classify.FastBatch
			stream uint32
			span   obs.Span
		}
		var open []openBatch
		next := 0
		for recvd := 0; recvd < numBatches; recvd++ {
			for next < numBatches && len(open) < inflight {
				lo := next * batchSize
				hi := lo + batchSize
				if hi > len(samples) {
					hi = len(samples)
				}
				span := obs.Start(obs.PhaseClassifyBatch)
				batch, req, err := c.session.NewBatch(samples[lo:hi], c.rand)
				if err != nil {
					return err
				}
				stream := uint32(next + 1)
				if err := c.conn.SendStream(stream, req); err != nil {
					return err
				}
				open = append(open, openBatch{batch: batch, stream: stream, span: span})
				next++
				obs.Observe(obs.HistInflightDepth, int64(len(open)))
			}
			payload, stream, err := c.conn.recvStreamAny()
			if err != nil {
				return err
			}
			resp, ok := payload.(*ompe.FastBatchResponse)
			if !ok {
				return fmt.Errorf("transport: unexpected message %T, want %T", payload, resp)
			}
			if stream != open[0].stream {
				return fmt.Errorf("transport: response for stream %d, want %d", stream, open[0].stream)
			}
			part, err := open[0].batch.Finish(resp)
			if err != nil {
				return err
			}
			open[0].span.End()
			open = open[1:]
			labels = append(labels, part...)
			obs.Add(obs.CtrClassifyBatches, 1)
			obs.Add(obs.CtrClassifyQueries, int64(len(part)))
			obs.Observe(obs.HistBatchSize, int64(len(part)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}
