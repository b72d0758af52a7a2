// Package transport carries the protocol state machines over real
// connections: a typed message layer (versioned binary frames over any
// io.ReadWriteCloser, from a session's first byte to its last) plus a TCP
// server and client for the classification and similarity protocols. The
// same code paths drive in-memory net.Pipe connections in tests and TCP
// sockets in the cmd/ binaries, making the system an actual distributed
// deployment rather than a single-process simulation.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// writeBufPool recycles per-conn write buffers: a frame's header and
// payload go out as one flush of a pooled 32 KiB slab instead of two
// syscalls per message.
var writeBufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}

// Hello opens a session and selects the service.
type Hello struct {
	// Service is one of "classify-fast" (the IKNP classification
	// session), "similarity-linear", "similarity-kernel" or "resume-info".
	Service string
	// ResumeOffered asks the server to mint a resumption ticket at the
	// clean end of this session.
	ResumeOffered bool
	// ResumeTicket carries a sealed resumption ticket from a previous
	// session. The server validates it and, on success, grants resumption
	// in the spec (Spec.ResumeGranted) and both sides skip the base OT
	// phase; on any failure it silently declines and the session runs a
	// full handshake.
	ResumeTicket []byte
}

// Done signals the clean end of a session.
type Done struct{}

// ErrRemote wraps an error reported by the peer.
var ErrRemote = errors.New("transport: remote error")

// ErrTimeout wraps any send/receive that failed because a message
// deadline passed: errors.Is(err, ErrTimeout) distinguishes "the network
// went quiet" from protocol failures.
var ErrTimeout = errors.New("transport: deadline exceeded")

// ErrCanceled wraps failures caused by context cancellation.
var ErrCanceled = errors.New("transport: canceled")

// wrapIO classifies a raw stream error: deadline expiries (from net.Conn
// deadlines or deadline-aware wrappers) gain the ErrTimeout mark so
// callers can branch on timeout-vs-protocol failure.
func wrapIO(op string, err error) error {
	var nerr interface{ Timeout() bool }
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &nerr) && nerr.Timeout()) {
		return fmt.Errorf("transport: %s: %w: %v", op, ErrTimeout, err)
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

// Conn is a typed, framed protocol connection. One goroutine may send
// while another receives (the server's pipelined sessions do exactly
// that), but sends must not race other sends, nor receives other
// receives.
type Conn struct {
	rw io.ReadWriteCloser
	bw *bufio.Writer
	br *bufio.Reader

	// encBuf and recvBuf are the reused scratch buffers (payload encode
	// target and frame payload, respectively). encBuf is guarded by
	// sendMu; recvBuf by the single-receiver contract.
	encBuf  []byte
	recvBuf []byte

	// deadline, when non-zero, bounds each message exchange on net.Conn
	// transports.
	deadline time.Duration

	// sendMu serializes encoder access between an in-flight send and
	// Close's reclamation of the pooled write buffer. Protocol discipline
	// already keeps application sends sequential; the mutex exists so a
	// concurrent Close (e.g. RunContext cancellation, or a server tearing
	// down while its worker reports an error) cannot return the buffer to
	// the pool mid-flush.
	sendMu    sync.Mutex
	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
}

// deadliner matches net.Conn's deadline surface.
type deadliner interface {
	SetDeadline(time.Time) error
}

// Endpoint roles for the per-role byte counters. When client and server
// share a process (benches, in-process fleets), the role-less totals
// count every byte twice and in == out tautologically; role-tagged
// connections additionally feed the directional counters that stay
// meaningful in that setup.
const (
	roleClient = "client"
	roleServer = "server"
)

// countingStream counts wire bytes at the transport frame layer. Counting
// happens per Read/Write call (one recorder call each), so the disabled
// path costs a single no-op interface call per syscall-sized chunk.
type countingStream struct {
	rw io.ReadWriteCloser
	// inCtr/outCtr are the role-split counter names ("" for untagged
	// connections, which feed only the process totals).
	inCtr, outCtr string
}

func (cs countingStream) Read(p []byte) (int, error) {
	n, err := cs.rw.Read(p)
	if n > 0 {
		obs.Add(obs.CtrBytesIn, int64(n))
		if cs.inCtr != "" {
			obs.Add(cs.inCtr, int64(n))
		}
	}
	return n, err
}

func (cs countingStream) Write(p []byte) (int, error) {
	n, err := cs.rw.Write(p)
	if n > 0 {
		obs.Add(obs.CtrBytesOut, int64(n))
		if cs.outCtr != "" {
			obs.Add(cs.outCtr, int64(n))
		}
	}
	return n, err
}

func (cs countingStream) Close() error { return cs.rw.Close() }

// deadlineCountingStream additionally forwards the deadline surface, so
// wrapping never hides a transport's deadline capability (RunContext
// falls back to Close-on-cancel only for genuinely deadline-less
// streams).
type deadlineCountingStream struct {
	countingStream
}

func (cs deadlineCountingStream) SetDeadline(t time.Time) error {
	return cs.rw.(deadliner).SetDeadline(t)
}

// countStream wraps rw with byte counting while preserving its deadline
// capability exactly.
func countStream(rw io.ReadWriteCloser, role string) io.ReadWriteCloser {
	cs := countingStream{rw: rw}
	switch role {
	case roleClient:
		cs.inCtr, cs.outCtr = obs.CtrClientBytesIn, obs.CtrClientBytesOut
	case roleServer:
		cs.inCtr, cs.outCtr = obs.CtrServerBytesIn, obs.CtrServerBytesOut
	}
	if _, ok := rw.(deadliner); ok {
		return deadlineCountingStream{cs}
	}
	return cs
}

// NewConn wraps a byte stream in the typed message layer. The write
// buffer comes from a pool shared by all connections.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return newConnRole(rw, "")
}

// newConnRole is NewConn with a role tag for the per-role byte counters
// (the protocol clients pass roleClient, the server roleServer; untagged
// connections feed only the process totals).
func newConnRole(rw io.ReadWriteCloser, role string) *Conn {
	rw = countStream(rw, role)
	bw := writeBufPool.Get().(*bufio.Writer)
	bw.Reset(rw)
	return &Conn{rw: rw, bw: bw, br: bufio.NewReaderSize(rw, 32<<10)}
}

// UseCodec accepts CodecBinary, the only framing a connection speaks, and
// refuses any other name with ErrWireCodec.
//
// Deprecated: every connection speaks binary frames from its first byte;
// there is nothing to switch.
func (c *Conn) UseCodec(name string) error {
	if name != CodecBinary {
		return fmt.Errorf("%w: %q", ErrWireCodec, name)
	}
	return nil
}

// SetMessageDeadline bounds each subsequent Send/Recv when the underlying
// stream supports deadlines (no-op otherwise).
func (c *Conn) SetMessageDeadline(d time.Duration) { c.deadline = d }

func (c *Conn) arm() {
	if c.deadline <= 0 {
		return
	}
	if d, ok := c.rw.(deadliner); ok {
		// Best effort: a failed deadline set surfaces as a read/write error.
		_ = d.SetDeadline(time.Now().Add(c.deadline))
	}
}

// send writes one frame: the payload is encoded into the reused scratch
// buffer via the type-switch registry (no reflection), then header and
// payload go out through the pooled write buffer as a single flush. An
// error string (or a nil message) goes out as an error frame.
func (c *Conn) send(stream uint32, errStr string, v any) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed.Load() {
		return net.ErrClosed
	}
	c.arm()
	var tag byte
	payload := c.encBuf[:0]
	if errStr != "" || v == nil {
		tag = tagErr
		payload = append(payload, errStr...)
	} else {
		t, m, ok := binMsg(v)
		if !ok {
			return fmt.Errorf("transport: no frame tag for %T", v)
		}
		tag = t
		ww := wire.NewAppendWriter(payload)
		m.EncodeWire(ww)
		if err := ww.Err(); err != nil {
			return fmt.Errorf("transport: encode %T: %w", v, err)
		}
		payload = ww.Bytes()
	}
	c.encBuf = payload[:0]
	if len(payload) > maxFramePayload {
		return fmt.Errorf("transport: frame payload %d exceeds %d: %w", len(payload), maxFramePayload, wire.ErrOversize)
	}
	var hdr [frameHeaderSize]byte
	hdr[0] = wireVersion
	hdr[1] = tag
	binary.BigEndian.PutUint32(hdr[2:6], stream)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readFrameHeader reads and validates one frame header (version, payload
// bound) before any payload byte is read, so version skew and oversized
// frames fail fast.
func readFrameHeader(r io.Reader) (tag byte, stream uint32, n int, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	if hdr[0] != wireVersion {
		return 0, 0, 0, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrWireVersion, hdr[0], wireVersion)
	}
	size := binary.BigEndian.Uint32(hdr[6:10])
	if size > maxFramePayload {
		return 0, 0, 0, fmt.Errorf("transport: frame payload %d exceeds %d: %w", size, maxFramePayload, wire.ErrOversize)
	}
	return hdr[1], binary.BigEndian.Uint32(hdr[2:6]), int(size), nil
}

// recvFrame reads one frame from the connection's read buffer. The
// payload buffer grows only as bytes actually arrive (wire.ReadChunked),
// so a header declaring a huge payload costs one chunk until the peer
// sends it.
func (c *Conn) recvFrame() (any, uint32, error) {
	tag, stream, n, err := readFrameHeader(c.br)
	if err != nil {
		return nil, 0, err
	}
	buf, err := wire.ReadChunked(c.br, c.recvBuf, n)
	c.recvBuf = buf
	if err != nil {
		return nil, 0, err
	}
	if tag == tagErr {
		return nil, stream, fmt.Errorf("%w: %s", ErrRemote, string(buf))
	}
	msg, ok := newBinPayload(tag)
	if !ok {
		return nil, 0, fmt.Errorf("transport: unknown frame tag 0x%02x", tag)
	}
	if err := wire.Unmarshal(buf, msg); err != nil {
		return nil, 0, fmt.Errorf("transport: decode frame tag 0x%02x: %w", tag, err)
	}
	return msg, stream, nil
}

// Send transmits one message on stream 0.
func (c *Conn) Send(v any) error { return c.SendStream(0, v) }

// SendStream transmits one message tagged with a stream ID, correlating
// pipelined requests with their responses.
func (c *Conn) SendStream(stream uint32, v any) error {
	if err := c.send(stream, "", v); err != nil {
		return wrapIO("send", err)
	}
	obs.Add(obs.CtrMsgsOut, 1)
	return nil
}

// SendErr reports a protocol failure to the peer.
func (c *Conn) SendErr(cause error) error {
	return c.send(0, cause.Error(), nil)
}

// recvStreamAny receives the next message of any payload type along with
// its stream ID.
func (c *Conn) recvStreamAny() (any, uint32, error) {
	c.arm()
	payload, stream, err := c.recvFrame()
	if err != nil {
		if errors.Is(err, ErrRemote) {
			return nil, stream, err
		}
		return nil, 0, wrapIO("recv", err)
	}
	obs.Add(obs.CtrMsgsIn, 1)
	return payload, stream, nil
}

// recvAny receives the next message of any payload type.
func (c *Conn) recvAny() (any, error) {
	payload, _, err := c.recvStreamAny()
	return payload, err
}

// Close closes the underlying stream and returns the write buffer to the
// pool. Unflushed bytes are dropped — a session that matters has already
// flushed via Send.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		// Close the stream before taking sendMu: an in-flight send blocked
		// in Flush is unblocked by the close (its write errors out), so
		// Close never deadlocks behind a stalled peer.
		c.closeErr = c.rw.Close()
		c.sendMu.Lock()
		c.bw.Reset(io.Discard)
		writeBufPool.Put(c.bw)
		c.sendMu.Unlock()
	})
	return c.closeErr
}

// RunContext runs one blocking exchange (fn issues Send/Recv calls on c)
// under ctx. On cancellation the connection's deadline is forced into the
// past — or, for streams without deadlines, the stream is closed — so the
// blocked operation fails promptly; the returned error then carries
// ErrCanceled and ctx.Err(). A canceled session must be abandoned: the
// connection is no longer in a usable protocol state.
func (c *Conn) RunContext(ctx context.Context, fn func() error) error {
	if ctx == nil || ctx.Done() == nil {
		return fn()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	// On cancellation the callback unblocks fn; stop reports whether it
	// was prevented, and when it was not, RunContext waits for it to
	// finish so it never touches the stream after RunContext returns.
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(fired)
		if d, ok := c.rw.(deadliner); ok {
			_ = d.SetDeadline(time.Unix(1, 0))
		} else {
			_ = c.rw.Close()
		}
	})
	err := fn()
	if !stop() {
		<-fired
	}
	if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
		return fmt.Errorf("%w: %w (%v)", ErrCanceled, ctxErr, err)
	}
	return err
}

// PeekHello reads the session-opening Hello frame directly from a raw
// byte stream. It exists for the gateway's ticket-affinity routing: the
// gateway records every byte read here and replays them verbatim to
// whichever replica it picks, so the replica still sees the pristine
// client stream. Reads are exact — header, then exactly the declared
// payload — and a frame that is not a Hello, or declares more than
// maxHelloPayload bytes, is refused before any payload byte is read.
func PeekHello(r io.Reader) (*Hello, error) {
	tag, _, n, err := readFrameHeader(r)
	if err != nil {
		return nil, wrapIO("peek hello", err)
	}
	if tag != tagHello {
		return nil, fmt.Errorf("transport: peek hello: frame tag 0x%02x, want 0x%02x", tag, tagHello)
	}
	if n > maxHelloPayload {
		return nil, fmt.Errorf("transport: peek hello: payload %d exceeds %d: %w", n, maxHelloPayload, wire.ErrOversize)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, wrapIO("peek hello", err)
	}
	hello := new(Hello)
	if err := wire.Unmarshal(payload, hello); err != nil {
		return nil, fmt.Errorf("transport: peek hello: %w", err)
	}
	return hello, nil
}

// Recv receives the next message and asserts its type.
func Recv[T any](c *Conn) (T, error) {
	var zero T
	payload, err := c.recvAny()
	if err != nil {
		return zero, err
	}
	v, ok := payload.(T)
	if !ok {
		return zero, fmt.Errorf("transport: unexpected message %T, want %T", payload, zero)
	}
	return v, nil
}
