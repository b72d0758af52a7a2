package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// FleetClient is a classification client that rides the gateway's
// failover: it lazily opens a fast-classification session through the
// gateway and, when a query fails mid-session (replica death tears the
// splice down), discards the session and redials. The gateway routes
// the fresh session to a surviving replica, so a replica crash costs
// the client one retried batch, not an error. Shedding answers
// (ErrFleetBusy, ErrShuttingDown) are deliberate and are never retried.
//
// FleetClient is not safe for concurrent use; pipelining happens inside
// a session (ClassifyPipelined), not across clients.
type FleetClient struct {
	dial     Dialer
	addr     string
	opts     transport.Options
	rng      io.Reader
	retryMax int

	mu      sync.Mutex
	client  *transport.FastClassifyClient
	conn    net.Conn
	retries atomic.Int64
	// resume caches the state harvested at the last clean Close when the
	// options offer resumption; the next dial presents it (single-use —
	// consumed whether or not the server grants it).
	resume  *transport.ResumeState
	resumed atomic.Int64
}

// Resumed reports how many of this client's sessions skipped the base
// phase by presenting a ticket.
func (c *FleetClient) Resumed() int64 { return c.resumed.Load() }

// NewFleetClient builds a client that reaches the gateway at addr via
// dial (nil dials TCP with opts' retry policy). retryMax bounds redial
// attempts per query batch (0 selects 2: one per surviving replica in
// the smallest interesting fleet).
func NewFleetClient(dial Dialer, addr string, opts transport.Options, rng io.Reader, retryMax int) *FleetClient {
	if dial == nil {
		dial = func(ctx context.Context, a string) (net.Conn, error) {
			return transport.DialContext(ctx, a, opts)
		}
	}
	if retryMax <= 0 {
		retryMax = 2
	}
	return &FleetClient{dial: dial, addr: addr, opts: opts, rng: rng, retryMax: retryMax}
}

// Retries reports how many sessions were discarded and redialed.
func (c *FleetClient) Retries() int64 { return c.retries.Load() }

// session returns the live session, dialing a fresh one if needed.
func (c *FleetClient) session(ctx context.Context) (*transport.FastClassifyClient, error) {
	if c.client != nil {
		return c.client, nil
	}
	nc, err := c.dial(ctx, c.addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: fleet dial: %w", err)
	}
	opts := c.opts
	if c.resume != nil {
		opts.Resume = c.resume
		c.resume = nil
	}
	cl, err := transport.NewFastClassifyClientContext(ctx, nc, opts, c.rng)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if cl.Resumed() {
		c.resumed.Add(1)
	}
	c.client = cl
	c.conn = nc
	return cl, nil
}

// discard tears the current session down after a failure.
func (c *FleetClient) discard() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.client = nil
	c.conn = nil
}

// retryable reports whether err is worth a redial: infrastructure
// failures are (the gateway fails the next session over to a surviving
// replica), deliberate shedding is not.
func retryable(err error) bool {
	return !IsFleetBusy(err) && !IsNoReplicas(err) && !IsShuttingDown(err)
}

// ClassifyBatch classifies samples in one round trip, redialing through
// the gateway on session failure.
func (c *FleetClient) ClassifyBatch(ctx context.Context, samples [][]float64) ([]int, error) {
	return c.retry(ctx, func(cl *transport.FastClassifyClient) ([]int, error) {
		return cl.ClassifyBatchContext(ctx, samples)
	})
}

// ClassifyPipelined classifies samples in pipelined batches, redialing
// through the gateway on session failure. A retry replays the whole
// sample set on the fresh session (queries are stateless, so replay is
// idempotent).
func (c *FleetClient) ClassifyPipelined(ctx context.Context, samples [][]float64, batchSize, inflight int) ([]int, error) {
	return c.retry(ctx, func(cl *transport.FastClassifyClient) ([]int, error) {
		return cl.ClassifyPipelined(ctx, samples, batchSize, inflight)
	})
}

func (c *FleetClient) retry(ctx context.Context, op func(*transport.FastClassifyClient) ([]int, error)) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	redials := 0
	for attempt := 0; attempt <= c.retryMax; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		cl, err := c.session(ctx)
		if err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, err
			}
			c.retries.Add(1)
			redials++
			continue
		}
		out, err := op(cl)
		if err == nil {
			return out, nil
		}
		lastErr = err
		c.discard()
		if !retryable(err) {
			return nil, err
		}
		c.retries.Add(1)
		redials++
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, fmt.Errorf("gateway: fleet query failed after %d redial(s): %w", redials, lastErr)
}

// Close ends the current session, if any, harvesting its resumption
// state for the next dial (sessions end but the client object lives on:
// the per-query methods transparently redial).
func (c *FleetClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client != nil {
		err := c.client.Close()
		if st := c.client.ResumeState(); st != nil {
			c.resume = st
		}
		c.client = nil
		c.conn = nil
		return err
	}
	return nil
}
