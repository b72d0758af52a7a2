package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestGatewayIdleHelloReleasesSlot: a client that connects and never
// sends its Hello holds a MaxSessions slot only until the peek deadline;
// then the gateway closes it and the next real client is admitted.
func TestGatewayIdleHelloReleasesSlot(t *testing.T) {
	saved := helloDeadline
	helloDeadline = 200 * time.Millisecond
	t.Cleanup(func() { helloDeadline = saved })
	f := startTestFleet(t, 1, Options{MaxSessions: 1})

	idle, err := f.network.Dial(context.Background(), "gateway")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, 5*time.Second, func() bool { return f.gw.ActiveSessions() == 1 })
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection read %v, want EOF from the gateway closing it", err)
	}
	waitFor(t, 5*time.Second, func() bool { return f.gw.ActiveSessions() == 0 })

	c := f.newClient()
	defer func() { _ = c.Close() }()
	labels, err := c.ClassifyBatch(context.Background(), f.samples)
	if err != nil {
		t.Fatalf("client after the idle peek timed out: %v", err)
	}
	if err := f.checkPredictions(labels, 0); err != nil {
		t.Fatal(err)
	}
	if shed := f.gw.Stats().Shed; shed != 0 {
		t.Fatalf("shed = %d, want 0", shed)
	}
}

// bufConn is an in-memory stream for transport.Conn: reads drain what
// was written.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error { return nil }

// FuzzPeekHello throws arbitrary client openings at the gateway's Hello
// peek: it must never panic, must record only bytes it actually read,
// must never read past the frame it parsed, and a Hello it accepts must
// reach the replica unchanged when the recording is replayed.
func FuzzPeekHello(f *testing.F) {
	var frame bufConn
	conn := transport.NewConn(&frame)
	hello := &transport.Hello{Service: "classify-fast", ResumeOffered: true, ResumeTicket: []byte("PPDCTKT1mint-id!sealed")}
	if err := conn.Send(hello); err != nil {
		f.Fatal(err)
	}
	valid := frame.Bytes()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add([]byte{0x01, 0x01, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile length
	f.Add([]byte{0x01, 0x0D, 0, 0, 0, 0, 0, 0, 0, 0})             // Done, not a Hello
	f.Add([]byte{0x3a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08})       // a gob stream's opening
	f.Fuzz(func(t *testing.T, input []byte) {
		rec := &recordingReader{r: bytes.NewReader(input)}
		got, err := transport.PeekHello(rec)
		recorded := rec.recorded()
		if !bytes.HasPrefix(input, recorded) {
			t.Fatal("recording is not what the client sent")
		}
		if len(recorded) > 10 && len(recorded) > 10+int(binary.BigEndian.Uint32(input[6:10])) {
			t.Fatalf("peek read %d bytes past its frame", len(recorded))
		}
		if err != nil {
			return
		}
		replica := new(bufConn)
		_, _ = replica.Write(recorded)
		replayed, err := transport.Recv[*transport.Hello](transport.NewConn(replica))
		if err != nil {
			t.Fatalf("replica cannot read the replayed Hello: %v", err)
		}
		a, errA := wire.Marshal(got)
		b, errB := wire.Marshal(replayed)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatal("replica saw a different Hello than the gateway peeked")
		}
	})
}
