package transport_test

// The one framing from a session's first byte: version skew and pre-frame
// peers fail fast, and every length a peer declares before the handshake
// is bounded before it can cost memory.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestWireVersionMismatch hand-crafts a frame with a future version byte:
// the receiver must fail fast with ErrWireVersion — before reading any
// payload — not hang waiting for bytes that never come.
func TestWireVersionMismatch(t *testing.T) {
	serverSide, clientSide := net.Pipe()
	defer serverSide.Close()
	conn := transport.NewConn(clientSide)
	conn.SetMessageDeadline(2 * time.Second)
	go func() {
		// version 0x02, tag 1, stream 0, length 0 — and nothing after the
		// header, so a decoder that ignores the version would block.
		_, _ = serverSide.Write([]byte{0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0})
	}()
	start := time.Now()
	_, err := transport.Recv[*transport.Hello](conn)
	if !errors.Is(err, transport.ErrWireVersion) {
		t.Fatalf("got %v, want ErrWireVersion", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("version mismatch took %v to surface", elapsed)
	}
}

// TestWireCodecOption pins the deprecated codec surface: CodecBinary is
// accepted, and any other name fails the handshake with ErrWireCodec
// before the Hello is sent.
func TestWireCodecOption(t *testing.T) {
	conn := transport.NewConn(&byteStream{r: bytes.NewReader(nil)})
	if err := conn.UseCodec(transport.CodecBinary); err != nil { //nolint:staticcheck // the deprecated surface is under test
		t.Fatalf("UseCodec(binary) = %v", err)
	}
	if err := conn.UseCodec("gob"); !errors.Is(err, transport.ErrWireCodec) { //nolint:staticcheck // the deprecated surface is under test
		t.Fatalf("UseCodec(gob) = %v, want ErrWireCodec", err)
	}
	serverSide, clientSide := net.Pipe()
	defer serverSide.Close()
	opts := transport.Options{WireCodec: "gob", MessageDeadline: time.Second} //nolint:staticcheck // the deprecated surface is under test
	if _, err := transport.NewFastClassifyClientContext(t.Context(), clientSide, opts, rand.Reader); !errors.Is(err, transport.ErrWireCodec) {
		t.Fatalf("handshake with WireCodec gob = %v, want ErrWireCodec", err)
	}
}

// TestLegacyGobHelloFailsFast plays a peer built before the one framing:
// it opens with a gob-encoded Hello envelope. A gob stream starts with a
// message length, never the frame version 0x01, so the server must drop
// the session with ErrWireVersion at the header, well within its message
// deadline.
func TestLegacyGobHelloFailsFast(t *testing.T) {
	type legacyHello struct {
		Service      string
		FieldBackend string
		WireCodecs   []string
	}
	type legacyEnvelope struct {
		Err     string
		Stream  uint32
		Payload any
	}
	gob.Register(&legacyHello{})
	var raw bytes.Buffer
	env := legacyEnvelope{Payload: &legacyHello{Service: "classify", FieldBackend: "limb", WireCodecs: []string{"binary", "gob"}}}
	if err := gob.NewEncoder(&raw).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if raw.Bytes()[0] == 0x01 {
		t.Fatalf("gob stream opens with the frame version byte")
	}

	trainer, _ := newTrainer(t, 48)
	srv := transport.NewServer(trainer)
	srv.MessageDeadline = 2 * time.Second
	var mu sync.Mutex
	var logged []error
	srv.Logf = func(_ string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range args {
			if err, ok := a.(error); ok {
				logged = append(logged, err)
			}
		}
	}
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	// The server reads only the 10-byte header, so the rest of this write
	// fails once it closes; the error is expected.
	go func() { _, _ = clientSide.Write(raw.Bytes()) }()
	select {
	case <-done:
	case <-time.After(srv.MessageDeadline):
		t.Fatal("server did not drop the gob session within its message deadline")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range logged {
		if errors.Is(err, transport.ErrWireVersion) {
			return
		}
	}
	t.Fatalf("server logged %v, want ErrWireVersion", logged)
}

// TestOldLayoutHelloRefused plays peers built while the Hello still
// carried a field-engine string between Service and ResumeOffered. The
// string's length byte lands where the Bool now sits, so every such
// Hello a client sent — an engine named or not, a ticket presented or
// not — fails to decode: the server answers with an error frame and
// frees its one session slot for the next row, and the gateway's peek
// errors instead of routing on a misread ticket. (The one old layout
// that still decodes, an empty engine with a resumption offer but no
// ticket, reads as a one-byte ticket that the server declines.)
func TestOldLayoutHelloRefused(t *testing.T) {
	trainer, _ := newTrainer(t, 49)
	srv := quietServer(t, trainer)
	srv.MaxSessions = 1
	ticket := []byte("PPDCTKT1mint-id!sealed")
	for _, backend := range []string{"", "limb", "big"} {
		for _, withTicket := range []bool{false, true} {
			name := fmt.Sprintf("backend=%q/ticket=%v", backend, withTicket)
			w := wire.NewAppendWriter(nil)
			w.String("classify-fast")
			w.String(backend)
			w.Bool(withTicket)
			if withTicket {
				w.ByteSlice(ticket)
			} else {
				w.ByteSlice(nil)
			}
			if w.Err() != nil {
				t.Fatal(w.Err())
			}
			frame := append(frameHeader(1, uint32(len(w.Bytes()))), w.Bytes()...)
			isDecodeErr := func(err error) bool {
				return errors.Is(err, wire.ErrInvalid) || errors.Is(err, wire.ErrTrailing)
			}

			if hello, err := transport.PeekHello(bytes.NewReader(frame)); !isDecodeErr(err) {
				t.Fatalf("%s: peek = %+v, %v; want a wire decode error", name, hello, err)
			}

			serverSide, clientSide := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(serverSide)
			}()
			if _, err := clientSide.Write(frame); err != nil {
				t.Fatal(err)
			}
			_, err := transport.Recv[*classify.Spec](transport.NewConn(clientSide))
			if !errors.Is(err, transport.ErrRemote) || !(strings.Contains(err.Error(), wire.ErrInvalid.Error()) || strings.Contains(err.Error(), wire.ErrTrailing.Error())) {
				t.Fatalf("%s: client got %v, want a remote wire decode error", name, err)
			}
			_ = clientSide.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: server session did not end", name)
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("%s: refused session still counted: %d active", name, n)
			}
		}
	}
}

// frameHeader builds a frame header declaring n payload bytes.
func frameHeader(tag byte, n uint32) []byte {
	hdr := []byte{0x01, tag, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[6:], n)
	return hdr
}

// TestFrameRecvBoundsHostileLength: a header declaring the largest legal
// payload, followed by EOF, must fail typed without allocating the
// declared size — the receive buffer grows only as bytes arrive.
func TestFrameRecvBoundsHostileLength(t *testing.T) {
	conn := transport.NewConn(&byteStream{r: bytes.NewReader(frameHeader(1, transport.MaxFramePayload))})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := transport.Recv[*transport.Hello](conn)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("a %d-byte header with no payload allocated %d bytes", transport.MaxFramePayload, alloc)
	}
}

// TestPeekHelloBounds: the gateway's peek refuses a non-Hello frame and
// an oversized Hello after reading exactly the header, and accepts a
// Hello carrying a real resumption ticket.
func TestPeekHelloBounds(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"not-a-hello": frameHeader(13, 0),
		"oversized":   frameHeader(1, transport.MaxHelloPayload+1),
	} {
		t.Run(name, func(t *testing.T) {
			r := bytes.NewReader(append(hdr, make([]byte, 64)...))
			if _, err := transport.PeekHello(r); err == nil {
				t.Fatal("peek accepted the frame")
			}
			if read := r.Size() - int64(r.Len()); read != int64(len(hdr)) {
				t.Fatalf("peek read %d bytes, want only the %d-byte header", read, len(hdr))
			}
		})
	}
	t.Run("ticket", func(t *testing.T) {
		h := newResumeHarness(t, 70)
		st := h.session(transport.Options{OfferResume: true}, "peek-ticket").ResumeState()
		if st == nil {
			t.Fatal("no ticket harvested")
		}
		hello := &transport.Hello{Service: "classify-fast", ResumeOffered: true, ResumeTicket: st.Ticket}
		got, err := transport.PeekHello(bytes.NewReader(encodeFrame(t, hello)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.ResumeTicket, st.Ticket) {
			t.Fatal("peeked ticket differs from the one sent")
		}
	})
}
