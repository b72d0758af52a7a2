package faultnet_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// echoPeer reads everything from its end and writes it back, stopping on
// the first error.
func echoPeer(conn net.Conn) {
	buf := make([]byte, 256)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if _, werr := conn.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestTransparent: a zero profile passes bytes through unchanged.
func TestTransparent(t *testing.T) {
	a, b := net.Pipe()
	go echoPeer(b)
	c := faultnet.Wrap(a, faultnet.Profile{})
	defer c.Close()

	msg := []byte("hello, fault-free world")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip corrupted: %q", got)
	}
}

// TestChunkedWritesReassemble: fragmentation must be invisible to the
// reader — the full payload arrives, just in more pieces.
func TestChunkedWritesReassemble(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{ChunkWrites: 3})
	defer c.Close()
	defer b.Close()

	msg := bytes.Repeat([]byte("0123456789"), 10)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var readErr error
	go func() {
		defer wg.Done()
		got = make([]byte, len(msg))
		_, readErr = io.ReadFull(b, got)
	}()
	n, err := c.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("chunked payload corrupted")
	}
}

// TestFailWriteAfter: the write crossing the byte budget fails with
// ErrInjected, and bytes up to the budget still arrive.
func TestFailWriteAfter(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{FailWriteAfter: 5})
	defer c.Close()
	defer b.Close()

	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	n, err := c.Write([]byte("0123456789"))
	if !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("want ErrInjected, got n=%d err=%v", n, err)
	}
	if n != 5 {
		t.Fatalf("delivered %d bytes before fault, want 5", n)
	}
}

// TestFailReadAfter: same for the read direction.
func TestFailReadAfter(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{FailReadAfter: 4})
	defer c.Close()
	defer b.Close()

	go func() { _, _ = b.Write([]byte("0123456789")) }()
	buf := make([]byte, 10)
	n, err := io.ReadFull(c, buf)
	if !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("want ErrInjected, got n=%d err=%v", n, err)
	}
	if n != 4 {
		t.Fatalf("read %d bytes before fault, want 4", n)
	}
}

// TestResetClosesBothEnds: a reset fault errors locally and surfaces at
// the peer as a closed stream.
func TestResetClosesBothEnds(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{ResetAfter: 4})
	defer c.Close()
	defer b.Close()

	go func() {
		buf := make([]byte, 4)
		_, _ = io.ReadFull(b, buf)
	}()
	if _, err := c.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("more")); !errors.Is(err, faultnet.ErrReset) {
		t.Fatalf("want ErrReset, got %v", err)
	}
	// The peer must observe the closed stream, not block.
	_ = b.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read after reset should fail")
	}
}

// TestStallRespectsDeadline: a stalled connection unblocks when its
// deadline passes, with a timeout error.
func TestStallRespectsDeadline(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{StallAfter: 1})
	defer c.Close()
	defer b.Close()

	go func() {
		buf := make([]byte, 4)
		_, _ = io.ReadFull(b, buf)
		_, _ = b.Write([]byte("resp"))
	}()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Read(make([]byte, 4))
	if !errors.Is(err, faultnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stall outlived deadline: %v", elapsed)
	}
	var nerr interface{ Timeout() bool }
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stall error should be a timeout, got %v", err)
	}
}

// TestStallUnblocksOnClose: closing a stalled connection frees the
// blocked operation even with no deadline set.
func TestStallUnblocksOnClose(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{StallAfter: 1})
	defer b.Close()

	go func() {
		buf := make([]byte, 4)
		_, _ = io.ReadFull(b, buf)
	}()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, faultnet.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read did not unblock on Close")
	}
}

// TestLatencyIsDeterministic: the same seed yields the same jitter
// sequence (observed via total elapsed floor), and latency still honors
// deadlines.
func TestLatencyDeadline(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{Latency: 200 * time.Millisecond})
	defer c.Close()
	defer b.Close()

	if err := c.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Write([]byte("late"))
	if !errors.Is(err, faultnet.ErrDeadline) {
		t.Fatalf("latency past deadline should time out, got %v", err)
	}
}

// TestLatencyDelays: added latency is observable but bounded.
func TestLatencyDelays(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: 7})
	defer c.Close()
	defer b.Close()

	go echoPeer(b)
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Fatalf("two ops with 30ms latency finished in %v", elapsed)
	}
}

// TestDeadlineForwarding: deadlines reach the underlying net.Conn, so a
// read blocked inside it (no wrapper fault active) still unblocks.
func TestDeadlineForwarding(t *testing.T) {
	a, b := net.Pipe()
	c := faultnet.Wrap(a, faultnet.Profile{})
	defer c.Close()
	defer b.Close()

	if err := c.SetDeadline(time.Now().Add(40 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read with no peer data should hit the deadline")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want os.ErrDeadlineExceeded from the inner conn, got %v", err)
	}
}

// TestWrappedPipeEnds: both ends of a net.Pipe, each wrapped with its own
// profile, talk to each other.
func TestWrappedPipeEnds(t *testing.T) {
	a, b := net.Pipe()
	x, y := faultnet.Wrap(a, faultnet.Profile{}), faultnet.Wrap(b, faultnet.Profile{ChunkWrites: 2})
	defer x.Close()
	defer y.Close()
	go func() {
		buf := make([]byte, 6)
		if _, err := io.ReadFull(y, buf); err == nil {
			_, _ = y.Write(buf)
		}
	}()
	if _, err := x.Write([]byte("sixsix")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := io.ReadFull(x, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "sixsix" {
		t.Fatalf("got %q", got)
	}
}
