package ppdc

import (
	"context"
	"io"
	"net"
	"time"

	"repro/internal/transport"
)

// DialOptions configures dial retry/backoff and per-message deadlines for
// the network clients. The zero value selects the defaults documented in
// the transport package (10s dial attempts, 3 attempts with exponential
// backoff + jitter, 2-minute message deadline).
type DialOptions = transport.Options

// Typed transport errors, for callers that branch on failure modes.
var (
	// ErrRemote marks a failure reported by the peer.
	ErrRemote = transport.ErrRemote
	// ErrTimeout marks a message exchange that exceeded its deadline.
	ErrTimeout = transport.ErrTimeout
	// ErrCanceled marks a session abandoned by context cancellation.
	ErrCanceled = transport.ErrCanceled
	// ErrServerBusy is reported (via ErrRemote) to clients rejected by a
	// server's MaxSessions cap.
	ErrServerBusy = transport.ErrServerBusy
	// ErrShuttingDown is reported (via ErrRemote) to clients that connect
	// while the server drains.
	ErrShuttingDown = transport.ErrShuttingDown
)

// NoDeadline disables the per-message deadline when assigned to
// DialOptions.MessageDeadline or Server.MessageDeadline.
const NoDeadline = transport.NoDeadline

// Server hosts a trainer's protocol endpoints over real connections:
// privacy-preserving classification and, when enabled, linear similarity
// evaluation. It serves concurrent sessions.
type Server = transport.Server

// NetworkClient drives the IKNP classification session against a remote
// trainer: one base phase at dial time, then two messages per batch (a
// single classification is a batch of one).
type NetworkClient = transport.FastClassifyClient

// NewServer builds a protocol server around a trainer.
func NewServer(t *Trainer) *Server { return transport.NewServer(t) }

// DialClassify connects to a trainer server over TCP and runs the
// session's spec handshake and base phase.
func DialClassify(addr string, timeout time.Duration, rng io.Reader) (*NetworkClient, error) {
	return transport.DialClassifyFast(addr, timeout, rng)
}

// DialSimilarity runs a full private similarity evaluation as Bob against
// a TCP server hosting model A, using Bob's own linear model (wB, bB).
func DialSimilarity(addr string, wB []float64, bB float64, timeout time.Duration, rng io.Reader) (*SimilarityResult, error) {
	return transport.DialSimilarity(addr, wB, bB, timeout, rng)
}

// DialKernelSimilarity runs a kernelized (§V-C) private similarity
// evaluation as Bob against a TCP server hosting a polynomial-kernel
// model, using Bob's own model.
func DialKernelSimilarity(addr string, modelB *Model, timeout time.Duration, rng io.Reader) (*SimilarityResult, error) {
	return transport.DialKernelSimilarity(addr, modelB, timeout, rng)
}

// Serve is a convenience: listen on addr and serve until the listener
// fails or the server is closed.
func Serve(s *Server, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// DialClassifyContext is DialClassify with retry/backoff and deadlines
// from opts, and the handshake and base phase bounded by ctx.
func DialClassifyContext(ctx context.Context, addr string, opts DialOptions, rng io.Reader) (*NetworkClient, error) {
	return transport.DialClassifyFastContext(ctx, addr, opts, rng)
}

// DialSimilarityContext is DialSimilarity with retry/backoff and
// deadlines from opts, and the whole evaluation bounded by ctx.
func DialSimilarityContext(ctx context.Context, addr string, wB []float64, bB float64, opts DialOptions, rng io.Reader) (*SimilarityResult, error) {
	return transport.DialSimilarityContext(ctx, addr, wB, bB, opts, rng)
}

// DialKernelSimilarityContext is DialKernelSimilarity with retry/backoff
// and deadlines from opts, and the whole evaluation bounded by ctx.
func DialKernelSimilarityContext(ctx context.Context, addr string, modelB *Model, opts DialOptions, rng io.Reader) (*SimilarityResult, error) {
	return transport.DialKernelSimilarityContext(ctx, addr, modelB, opts, rng)
}
