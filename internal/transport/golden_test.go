package transport_test

// Golden-transcript conformance suite. Every scenario runs a complete
// protocol session with deterministic randomness on both sides and
// records the raw bytes in each direction. The recordings are committed
// under testdata/wire/ and pin the wire format: TestGoldenWire re-runs
// each session and fails on any byte drift, then replays the committed
// bytes through the live decoders, so encode and decode both stay
// pinned to the committed transcripts.
//
// Regeneration is deliberate, never incidental:
//
//	PPDC_WIRE_REGEN=1 make wire-regen
//
// rewrites the files (after verifying back-to-back runs are
// byte-identical).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/similarity"
	"repro/internal/transport"
	"repro/internal/wire"
)

// goldenMagic opens every transcript container. v4 has no codec or pad
// field: every session speaks one framing and runs one OT pad.
const goldenMagic = "PPDCWIREv4"

var goldenDir = filepath.Join("testdata", "wire")

type goldenScenario struct {
	name    string
	service string // classify-serial | classify-batch | similarity
	group   string // the OT group's name, recorded in the container: x25519
	backend string // big | limb: the engine the field picks (classify services only)
}

// goldenScenarios spans the conformance matrix: the classification
// session queried one sample at a time (classify-serial: two batches of
// one, which pins the extension's batch counter across messages) and by
// one batch of four (classify-batch), each on {big,limb}, and the linear
// similarity protocol. A limb
// scenario serves the linear model at the default parameters, which fit
// 2^255−19; a big scenario widens the amplifier until the protocol needs
// 2^521−1, which runs math/big. Both send the same request form, records
// of field-width elements, so their requests differ only in record
// width. Names carry the "binary" infix of the one framing and the
// "x25519" infix of the one OT group, which keeps the transcript file
// names stable.
func goldenScenarios() []goldenScenario {
	var out []goldenScenario
	for _, service := range []string{"classify-serial", "classify-batch"} {
		for _, backend := range []string{"big", "limb"} {
			out = append(out, goldenScenario{
				name:    fmt.Sprintf("%s_binary_x25519_%s", service, backend),
				service: service, group: "x25519", backend: backend,
			})
		}
	}
	return append(out, goldenScenario{name: "similarity_binary_x25519", service: "similarity", group: "x25519"})
}

// goldenBigAmplifierBits widens the big scenarios' amplifier past what
// 2^255−19 can hold, so their protocol lands on 2^521−1.
const goldenBigAmplifierBits = 192

// runGoldenSession performs one deterministic session and returns the
// client's wire bytes in each direction.
func runGoldenSession(t *testing.T, sc goldenScenario) (c2s, s2c []byte) {
	t.Helper()
	var opts transport.Options

	model, test := trainLinear(t, 91)
	var params classify.Params
	wantBits := 255
	if sc.backend == "big" {
		params.AmplifierBits = goldenBigAmplifierBits
		wantBits = 521
	}
	trainer, err := classify.NewTrainer(model, params)
	if err != nil {
		t.Fatal(err)
	}
	if bits := trainer.Spec().FieldBits; bits != wantBits {
		t.Fatalf("%s on a %d-bit field, want %d", sc.name, bits, wantBits)
	}
	srv := quietServer(t, trainer)
	srv.Rand = newDetReader("golden-server-" + sc.name)
	clientRand := newDetReader("golden-client-" + sc.name)

	if sc.service == "similarity" {
		modelB, _ := trainLinear(t, 92)
		wA, err := model.LinearWeights()
		if err != nil {
			t.Fatal(err)
		}
		wB, err := modelB.LinearWeights()
		if err != nil {
			t.Fatal(err)
		}
		srv.EnableSimilarity(wA, model.Bias, similarity.Params{})
		return recordSession(t, srv, func(rc net.Conn) error {
			_, err := transport.EvaluateSimilarityContext(t.Context(), rc, wB, modelB.Bias, opts, clientRand)
			return err
		})
	}

	switch sc.service {
	case "classify-serial":
		return recordSession(t, srv, func(rc net.Conn) error {
			fc, err := transport.NewFastClassifyClientContext(t.Context(), rc, opts, clientRand)
			if err != nil {
				return err
			}
			for _, sample := range test.X[:2] {
				if _, err := fc.ClassifyContext(t.Context(), sample); err != nil {
					return err
				}
			}
			return fc.Close()
		})
	case "classify-batch":
		return recordSession(t, srv, func(rc net.Conn) error {
			fc, err := transport.NewFastClassifyClientContext(t.Context(), rc, opts, clientRand)
			if err != nil {
				return err
			}
			if _, err := fc.ClassifyBatchContext(t.Context(), test.X[:4]); err != nil {
				return err
			}
			return fc.Close()
		})
	}
	t.Fatalf("unknown service %q", sc.service)
	return nil, nil
}

// recordSession serves one connection, runs the client body over a
// recording wrapper, and returns the bytes the client wrote and read.
func recordSession(t *testing.T, srv *transport.Server, client func(net.Conn) error) (c2s, s2c []byte) {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	rc := &recordingConn{Conn: clientSide}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	if err := client(rc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server session did not end")
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]byte(nil), rc.wrote.Bytes()...), append([]byte(nil), rc.read.Bytes()...)
}

// encodeGolden frames a transcript in the wire codec's own container
// format: magic, scenario metadata, then the two direction blobs.
func encodeGolden(sc goldenScenario, c2s, s2c []byte) ([]byte, error) {
	w := wire.NewAppendWriter(nil)
	w.String(goldenMagic)
	w.String(sc.name)
	w.String(sc.service)
	w.String(sc.group)
	w.String(sc.backend)
	w.ByteSlice(c2s)
	w.ByteSlice(s2c)
	return w.Bytes(), w.Err()
}

type goldenFile struct {
	scenario goldenScenario
	c2s, s2c []byte
}

func decodeGolden(data []byte) (*goldenFile, error) {
	r := wire.NewReader(data)
	if magic := r.String(); r.Err() == nil && magic != goldenMagic {
		return nil, fmt.Errorf("bad transcript magic %q", magic)
	}
	var g goldenFile
	g.scenario.name = r.String()
	g.scenario.service = r.String()
	g.scenario.group = r.String()
	g.scenario.backend = r.String()
	g.c2s = r.ByteSlice()
	g.s2c = r.ByteSlice()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &g, nil
}

// replayDirection feeds one direction of a recorded session through the
// live decoders. Returns the number of messages decoded.
func replayDirection(t *testing.T, stream []byte) int {
	t.Helper()
	conn := transport.NewConn(&byteStream{r: bytes.NewReader(stream)})
	n := 0
	for {
		if _, err := conn.RecvAnyForTest(); err != nil {
			if errors.Is(err, io.EOF) {
				return n
			}
			t.Fatalf("message %d: %v", n, err)
		}
		n++
	}
}

func goldenPath(sc goldenScenario) string {
	return filepath.Join(goldenDir, sc.name+".bin")
}

// TestGoldenWire is the conformance gate. Normal runs re-execute every
// scenario and demand byte-identical wire traffic against the committed
// transcript, then replay the committed bytes through the decoders. With
// PPDC_WIRE_REGEN=1 it rewrites the transcripts instead, refusing to
// write anything that is not reproducible run-to-run.
func TestGoldenWire(t *testing.T) {
	regen := os.Getenv("PPDC_WIRE_REGEN") == "1"
	if regen {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			c2s, s2c := runGoldenSession(t, sc)
			if regen {
				c2s2, s2c2 := runGoldenSession(t, sc)
				if !bytes.Equal(c2s, c2s2) || !bytes.Equal(s2c, s2c2) {
					t.Fatal("refusing to write a non-deterministic transcript")
				}
				data, err := encodeGolden(sc, c2s, s2c)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(sc), data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(goldenPath(sc))
			if err != nil {
				t.Fatalf("missing golden transcript (run `PPDC_WIRE_REGEN=1 make wire-regen` and commit): %v", err)
			}
			g, err := decodeGolden(raw)
			if err != nil {
				t.Fatal(err)
			}
			if g.scenario != sc {
				t.Fatalf("transcript metadata %+v does not match scenario %+v", g.scenario, sc)
			}
			if !bytes.Equal(c2s, g.c2s) {
				t.Errorf("client-to-server bytes drifted from golden transcript (%d vs %d bytes): %s",
					len(c2s), len(g.c2s), describeDrift(c2s, g.c2s))
			}
			if !bytes.Equal(s2c, g.s2c) {
				t.Errorf("server-to-client bytes drifted from golden transcript (%d vs %d bytes): %s",
					len(s2c), len(g.s2c), describeDrift(s2c, g.s2c))
			}
			if nc := replayDirection(t, g.c2s); nc < 2 {
				t.Fatalf("implausibly short client stream: %d messages", nc)
			}
			if ns := replayDirection(t, g.s2c); ns < 2 {
				t.Fatalf("implausibly short server stream: %d messages", ns)
			}
		})
	}
}

// describeDrift pinpoints the first byte where a recorded stream
// departs from its golden transcript, with a short hex window around
// it — enough to tell a reordered frame from corrupted content.
func describeDrift(got, want []byte) string {
	n := min(len(got), len(want))
	off := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			off = i
			break
		}
	}
	lo := max(off-8, 0)
	hi := min(off+8, n)
	return fmt.Sprintf("first difference at offset %d: got % x, want % x",
		off, got[lo:hi], want[lo:hi])
}
