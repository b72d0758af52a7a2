package transport

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultMessageDeadline bounds each message exchange.
	DefaultMessageDeadline = 2 * time.Minute
	// DefaultDialTimeout bounds each individual dial attempt.
	DefaultDialTimeout = 10 * time.Second
	// DefaultMaxAttempts is the total number of dial attempts.
	DefaultMaxAttempts = 3
)

// The dial retry schedule: the delay before the first retry is
// backoffBase, each later one doubles up to backoffMax, and every delay is
// jittered uniformly down to half its nominal value so synchronized
// clients spread out.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// NoDeadline disables the per-message deadline when assigned to
// Options.MessageDeadline (a zero value selects the default instead).
const NoDeadline = time.Duration(-1)

// Options configures dialing and session behavior for the protocol
// clients. The zero value selects the defaults above.
type Options struct {
	// DialTimeout bounds each individual dial attempt.
	DialTimeout time.Duration

	// MessageDeadline bounds every message exchange of the session on
	// deadline-capable transports. Zero selects DefaultMessageDeadline;
	// NoDeadline (any negative value) disables it.
	MessageDeadline time.Duration

	// MaxAttempts is the total number of dial attempts (1 = no retry).
	// Zero selects DefaultMaxAttempts.
	MaxAttempts int

	// FieldBackend is ignored: the trainer's spec fixes the field, and
	// the field picks the engine.
	//
	// Deprecated: nothing is requested; the Hello carries no engine.
	FieldBackend string

	// WireCodec must be empty or CodecBinary; any other value fails the
	// handshake with ErrWireCodec.
	//
	// Deprecated: every session speaks the binary framing.
	WireCodec string

	// PadFunc is ignored.
	//
	// Deprecated: every session runs the fixed-key AES pad.
	PadFunc string

	// OfferResume asks the server to mint a session-resumption ticket at
	// the clean end of a fast session (FastClassifyClient.ResumeState
	// harvests it at Close). Strictly opt-in; setting Resume implies the
	// offer.
	OfferResume bool

	// Resume presents a previously harvested ResumeState on the next fast
	// handshake: the ticket rides the Hello, and a granting server skips
	// the base OT phase. A declined or stale ticket silently falls back
	// to a full handshake; only protocol violations (a grant that was
	// never offered, or a granted contract diverging from the ticket's)
	// surface as ErrResume.
	Resume *ResumeState
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.MessageDeadline == 0 {
		o.MessageDeadline = DefaultMessageDeadline
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	return o
}

// sendHello opens a client session: it refuses a WireCodec other than
// the binary framing, then sends the Hello.
func (o Options) sendHello(conn *Conn, hello *Hello) error {
	if o.WireCodec != "" {
		if err := conn.UseCodec(o.WireCodec); err != nil {
			return err
		}
	}
	return conn.Send(hello)
}

// messageDeadline resolves the effective per-message deadline (0 = none).
func (o Options) messageDeadline() time.Duration {
	o = o.withDefaults()
	if o.MessageDeadline < 0 {
		return 0
	}
	return o.MessageDeadline
}

// jitterRand is the process-wide jitter source of the dial retries.
// math/rand (not crypto) is deliberate: backoff jitter needs spread, not
// unpredictability.
var (
	jitterMu   sync.Mutex
	jitterRand = mrand.New(mrand.NewSource(1))
)

// backoffDelay returns the jittered delay before retry number `retry`
// (1-based): base·2^(retry-1) capped at ceiling, then scaled uniformly into
// [1/2, 1] of its nominal value by a draw from rng, or from jitterRand
// when rng is nil.
func backoffDelay(retry int, base, ceiling time.Duration, rng *mrand.Rand) time.Duration {
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= ceiling {
			d = ceiling
			break
		}
	}
	if d > ceiling {
		d = ceiling
	}
	var frac float64
	if rng != nil {
		frac = rng.Float64()
	} else {
		jitterMu.Lock()
		frac = jitterRand.Float64()
		jitterMu.Unlock()
	}
	return d/2 + time.Duration(frac*float64(d/2))
}

// DialContext dials addr with the per-attempt timeout, retry, and
// exponential-backoff policy in opts, honoring ctx throughout. It is the
// raw-stream entry point the fleet layer (gateway replica dialing,
// health probing) shares with the protocol clients.
func DialContext(ctx context.Context, addr string, opts Options) (net.Conn, error) {
	return dialRetry(ctx, addr, opts)
}

// dialRetry dials addr with per-attempt timeouts and exponential backoff
// between attempts, honoring ctx throughout.
func dialRetry(ctx context.Context, addr string, o Options) (net.Conn, error) {
	o = o.withDefaults()
	var dialer net.Dialer
	var lastErr error
	for attempt := 1; attempt <= o.MaxAttempts; attempt++ {
		if attempt > 1 {
			obs.Add(obs.CtrDialRetries, 1)
			delay := backoffDelay(attempt-1, backoffBase, backoffMax, nil)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("transport: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, o.DialTimeout)
		nc, err := dialer.DialContext(attemptCtx, "tcp", addr)
		cancel()
		if err == nil {
			return nc, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
		}
	}
	return nil, fmt.Errorf("transport: dial %s: %d attempt(s) failed: %w", addr, o.MaxAttempts, lastErr)
}
