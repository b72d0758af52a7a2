// Package faultnet wraps byte streams with deterministic, seedable fault
// injection for chaos-testing the transport layer. A wrapped connection
// can add latency to every operation, fragment writes into small chunks,
// fail a read or write once a byte budget is exhausted, reset the
// connection mid-protocol, or stall silently — each fault triggered at an
// exact byte offset so failures land at reproducible points inside a
// protocol run.
//
// The wrapper honors read/write deadlines itself (and forwards them to
// the underlying stream when it supports them), so a stalled or delayed
// connection still unblocks when its deadline passes — the property the
// transport layer's per-message deadlines rely on.
package faultnet

import (
	"errors"
	"io"
	mrand "math/rand"
	"sync"
	"time"
)

var (
	// ErrInjected is the error returned by a read/write that trips an
	// injected fault.
	ErrInjected = errors.New("faultnet: injected fault")
	// ErrReset is returned after a connection reset fault; the underlying
	// stream is closed so the peer observes the failure too.
	ErrReset = errors.New("faultnet: connection reset")
	// ErrClosed is returned by operations on a closed connection.
	ErrClosed = errors.New("faultnet: connection closed")
)

// timeoutError satisfies net.Error with Timeout() == true so callers that
// classify errors the standard way (errors.Is(err, os.ErrDeadlineExceeded)
// aside) see a timeout.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: deadline exceeded" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrDeadline is returned when an operation exceeds the configured
// deadline while a fault (latency, stall) holds it up. It reports
// Timeout() == true like the net package's deadline errors.
var ErrDeadline error = timeoutError{}

// Profile configures the faults injected on one direction-agnostic
// connection. The zero Profile injects nothing and is a transparent
// wrapper.
type Profile struct {
	// Seed makes latency jitter deterministic. The byte-offset faults are
	// deterministic regardless of seed.
	Seed int64

	// Latency is added before every Read and Write. Jitter, when
	// non-zero, adds a uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// ChunkWrites, when > 0, fragments every Write into chunks of at most
	// this many bytes, forwarded separately to the underlying stream
	// (with per-chunk latency). The call still reports the full count —
	// the io.Writer contract is preserved; only the framing the peer
	// observes changes.
	ChunkWrites int

	// FailReadAfter / FailWriteAfter, when > 0, make the read or write
	// that would cross the Nth byte fail with ErrInjected. Bytes up to
	// the budget are still delivered.
	FailReadAfter  int64
	FailWriteAfter int64

	// ResetAfter, when > 0, resets the connection once N total bytes
	// (reads + writes) have passed: the underlying stream is closed (the
	// peer sees EOF / a closed pipe) and the local side gets ErrReset.
	ResetAfter int64

	// StallAfter, when > 0, silently stalls the connection once N total
	// bytes have passed: every subsequent operation blocks until the
	// deadline passes (ErrDeadline) or the connection is closed
	// (ErrClosed). This models a peer that goes dark without closing.
	StallAfter int64
}

// deadliner is the optional deadline surface of the underlying stream.
type deadliner interface {
	SetDeadline(time.Time) error
}

// Conn wraps an io.ReadWriteCloser with the faults of a Profile. It
// implements io.ReadWriteCloser and SetDeadline, which is the surface the
// transport layer requires.
type Conn struct {
	rw      io.ReadWriteCloser
	profile Profile

	mu          sync.Mutex
	rng         *mrand.Rand
	readN       int64 // total bytes read
	writeN      int64 // total bytes written
	deadline    time.Time
	deadlineSet chan struct{} // closed and replaced on each SetDeadline
	stalled     bool
	closed      bool
	done        chan struct{} // closed on Close
}

// Wrap wraps rw with the faults described by p.
func Wrap(rw io.ReadWriteCloser, p Profile) *Conn {
	return &Conn{
		rw:          rw,
		profile:     p,
		rng:         mrand.New(mrand.NewSource(p.Seed)),
		done:        make(chan struct{}),
		deadlineSet: make(chan struct{}),
	}
}

// SetDeadline bounds every subsequent Read and Write — and, like a real
// net.Conn, interrupts operations already blocked in a latency or stall
// fault. It is forwarded to the underlying stream when supported, and
// additionally enforced by the wrapper itself so latency and stall faults
// cannot outlast it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	wake := c.deadlineSet
	c.deadlineSet = make(chan struct{})
	c.mu.Unlock()
	close(wake) // blocked waits re-read the deadline
	if d, ok := c.rw.(deadliner); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// Close closes the wrapper and the underlying stream, unblocking any
// stalled or delayed operations.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	return c.rw.Close()
}

// sleep waits for d, cut short by the deadline (ErrDeadline) or Close
// (ErrClosed). It re-reads the deadline whenever SetDeadline fires, so a
// cancellation that forces the deadline into the past interrupts an
// in-flight latency wait. Returns nil when the full duration elapsed.
func (c *Conn) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	target := time.Now().Add(d)
	for {
		c.mu.Lock()
		deadline := c.deadline
		wake := c.deadlineSet
		c.mu.Unlock()
		now := time.Now()
		if !deadline.IsZero() && !deadline.After(now) {
			return ErrDeadline
		}
		if !target.After(now) {
			return nil
		}
		next := target
		deadlineFirst := false
		if !deadline.IsZero() && deadline.Before(target) {
			next = deadline
			deadlineFirst = true
		}
		t := time.NewTimer(time.Until(next))
		select {
		case <-t.C:
			if deadlineFirst {
				return ErrDeadline
			}
			return nil
		case <-c.done:
			t.Stop()
			return ErrClosed
		case <-wake:
			t.Stop() // deadline changed: recompute
		}
	}
}

// stall blocks until the deadline passes (ErrDeadline) or the connection
// is closed (ErrClosed), tracking deadline updates like sleep.
func (c *Conn) stall() error {
	for {
		c.mu.Lock()
		deadline := c.deadline
		wake := c.deadlineSet
		c.mu.Unlock()
		if deadline.IsZero() {
			select {
			case <-c.done:
				return ErrClosed
			case <-wake:
				continue
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrDeadline
		}
		t := time.NewTimer(remain)
		select {
		case <-t.C:
			return ErrDeadline
		case <-c.done:
			t.Stop()
			return ErrClosed
		case <-wake:
			t.Stop()
		}
	}
}

// latency returns this operation's injected delay.
func (c *Conn) latency() time.Duration {
	p := c.profile
	if p.Latency <= 0 && p.Jitter <= 0 {
		return 0
	}
	d := p.Latency
	if p.Jitter > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(p.Jitter)))
		c.mu.Unlock()
	}
	return d
}

// checkOpen returns an error when the connection is closed or was reset.
func (c *Conn) checkOpen() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return nil
}

// total returns total bytes in both directions.
func (c *Conn) total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readN + c.writeN
}

// preOp runs the faults common to reads and writes: stall, reset, and
// latency, in that order of precedence.
func (c *Conn) preOp() error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	p := c.profile
	if p.StallAfter > 0 && c.total() >= p.StallAfter {
		c.mu.Lock()
		c.stalled = true
		c.mu.Unlock()
		return c.stall()
	}
	if p.ResetAfter > 0 && c.total() >= p.ResetAfter {
		_ = c.Close()
		return ErrReset
	}
	return c.sleep(c.latency())
}

// Read reads from the underlying stream, applying latency, injected
// errors, resets, and stalls.
func (c *Conn) Read(b []byte) (int, error) {
	if err := c.preOp(); err != nil {
		return 0, err
	}
	p := c.profile
	if p.FailReadAfter > 0 {
		c.mu.Lock()
		remain := p.FailReadAfter - c.readN
		c.mu.Unlock()
		if remain <= 0 {
			return 0, ErrInjected
		}
		if int64(len(b)) > remain {
			b = b[:remain]
		}
	}
	n, err := c.rw.Read(b)
	c.mu.Lock()
	c.readN += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write writes to the underlying stream, applying latency, chunking,
// injected errors, resets, and stalls.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		if err := c.preOp(); err != nil {
			return total, err
		}
		chunk := b
		if c.profile.ChunkWrites > 0 && len(chunk) > c.profile.ChunkWrites {
			chunk = chunk[:c.profile.ChunkWrites]
		}
		if fail := c.profile.FailWriteAfter; fail > 0 {
			c.mu.Lock()
			remain := fail - c.writeN
			c.mu.Unlock()
			if remain <= 0 {
				return total, ErrInjected
			}
			if int64(len(chunk)) > remain {
				chunk = chunk[:remain]
			}
		}
		n, err := c.rw.Write(chunk)
		c.mu.Lock()
		c.writeN += int64(n)
		c.mu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
		b = b[n:]
		if c.profile.ChunkWrites == 0 && c.profile.FailWriteAfter == 0 {
			// No fragmentation faults: the single underlying Write
			// consumed everything.
			break
		}
	}
	return total, nil
}
