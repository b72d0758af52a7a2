package transport_test

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// byteStream adapts a byte slice to the io.ReadWriteCloser surface Conn
// wraps: reads drain the buffer, writes are discarded.
type byteStream struct {
	r *bytes.Reader
}

func (s *byteStream) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s *byteStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *byteStream) Close() error                { return nil }

type nopCloser struct{ io.ReadWriter }

func (nopCloser) Close() error { return nil }

func typedWireErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrOversize) ||
		errors.Is(err, wire.ErrInvalid) ||
		errors.Is(err, wire.ErrNilValue) ||
		errors.Is(err, wire.ErrTrailing)
}

// wireFuzzSamples covers every envelope payload type that is not already
// fuzzed by its own package (ot and ompe have dedicated targets): the
// transport frame payloads plus the classify/similarity/svm specs.
func wireFuzzSamples() []struct {
	name  string
	proto wire.Msg
} {
	simSpec := similarity.Spec{
		Dim: 3, Metric: similarity.DefaultMetric(), MaskDegree: 4,
		CoverFactor: 2, AmplifierBits: 40, FieldBits: 512, FracBits: 12,
		GroupName: "x25519",
	}
	return []struct {
		name  string
		proto wire.Msg
	}{
		{"Hello", &transport.Hello{Service: "classify", ResumeOffered: true, ResumeTicket: []byte("PPDCTKT1ticketbytes")}},
		{"RoundHeader", &transport.RoundHeader{Round: similarity.Round(2)}},
		{"Done", &transport.Done{}},
		{"ClassifySpec", &classify.Spec{Kernel: svm.Linear(), Dim: 4, Mode: classify.ModeDirect, MaskDegree: 4, CoverFactor: 2, AmplifierBits: 40, FieldBits: 512, FracBits: 12, GroupName: "x25519", ResumeGranted: true}},
		{"SessionTicket", &transport.SessionTicket{Ticket: []byte{0x50, 0x50, 0x44, 0x43, 0x54, 0x4B, 0x54, 0x31, 1, 2, 3, 4}}},
		{"ResumeInfo", &transport.ResumeInfo{MintID: []byte{8, 7, 6, 5, 4, 3, 2, 1}}},
		{"SimilaritySpec", &simSpec},
		{"Metric", &similarity.Metric{Alpha: -1, Beta: 1, L0: 0.5, Theta0: 0.25}},
		{"ClearShare", &similarity.ClearShare{NormM2: 1.5, NormW2: 2.5}},
		{"KernelSpec", &similarity.KernelSpec{Spec: simSpec, Kernel: svm.Polynomial(0.5, 0, 3)}},
		{"KernelClearShare", &similarity.KernelClearShare{KmBmB: 1, KwBwB: 2, NumSupport: 3, AlphaSum: big.NewInt(77)}},
		{"AreaScale", &similarity.AreaScale{C3Exp: 3, TotalExp: 9}},
		{"Kernel", &svm.Kernel{Kind: svm.KernelPolynomial, A0: 1, B0: 2, Degree: 3, Gamma: 0.5, C0: 1.5}},
	}
}

// FuzzWireMsgs throws arbitrary bytes at every envelope payload decoder:
// no panics, typed errors only, and clean decodes must re-encode to a
// canonical fixed point.
func FuzzWireMsgs(f *testing.F) {
	samples := wireFuzzSamples()
	for _, s := range samples {
		data, err := wire.Marshal(s.proto)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// The base-setup payload of a client from before the κ base OTs shared
	// one constraint: κ one-constraint setups.
	legacy := make([]*ot.BatchSetup, 128)
	for i := range legacy {
		legacy[i] = &ot.BatchSetup{Cs: []*big.Int{big.NewInt(int64(9 + i))}}
	}
	f.Add(legacySeq(legacy))
	// A base-phase setup frame, which travels under the k-of-n setup's
	// tag 4: header and one-constraint payload.
	f.Add(encodeFrame(f, &ot.BatchSetup{Cs: []*big.Int{big.NewInt(9)}}))
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return
		}
		for _, s := range samples {
			out := reflect.New(reflect.TypeOf(s.proto).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(input, out); err != nil {
				if !typedWireErr(err) {
					t.Fatalf("%s: untyped decode error: %v", s.name, err)
				}
			} else {
				re, err := wire.Marshal(out)
				if err != nil {
					t.Fatalf("%s: decoded value does not re-encode: %v", s.name, err)
				}
				out2 := reflect.New(reflect.TypeOf(s.proto).Elem()).Interface().(wire.Msg)
				if err := wire.Unmarshal(re, out2); err != nil {
					t.Fatalf("%s: canonical re-encoding does not decode: %v", s.name, err)
				}
				re2, err := wire.Marshal(out2)
				if err != nil {
					t.Fatalf("%s: re-marshal: %v", s.name, err)
				}
				if !bytes.Equal(re2, re) {
					t.Fatalf("%s: re-encoding is not a fixed point", s.name)
				}
			}
		}
	})
}

// encodeFrame produces the bytes of one well-formed frame, seeding the
// frame fuzz from valid header + payload layouts.
func encodeFrame(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	conn := transport.NewConn(nopCloser{&buf})
	if err := conn.Send(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drainHellos receives Hello frames from input until the stream errors;
// each frame must decode cleanly or error. The loop is bounded: every
// iteration either consumes input or errors out.
func drainHellos(t *testing.T, input []byte) {
	if len(input) > 1<<16 {
		return
	}
	conn := transport.NewConn(&byteStream{r: bytes.NewReader(input)})
	for i := 0; i < 16; i++ {
		v, err := transport.Recv[*transport.Hello](conn)
		if err != nil {
			return
		}
		if v == nil {
			t.Fatal("Recv returned nil payload without error")
		}
	}
}

// FuzzConnRecv feeds arbitrary byte streams into the typed receive path
// of a fresh connection: malformed, truncated, or concatenated frames
// must produce an error, never a panic or a silently wrong payload. (Same
// pattern as internal/field's FuzzFromBytes.)
func FuzzConnRecv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	valid := encodeFrame(f, &transport.Hello{Service: "classify"})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-frame
	f.Add(append(valid, valid[:8]...)) // trailing garbage after a frame
	f.Add(encodeFrame(f, &transport.Done{}))
	f.Fuzz(drainHellos)
}

// FuzzBinaryFrameRecv starts from frame-header shapes: a bad version, an
// unknown tag and a hostile length must produce an error, never a panic,
// a hang, or a silently wrong payload.
func FuzzBinaryFrameRecv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0})             // wrong version
	f.Add([]byte{0x01, 0xEE, 0, 0, 0, 0, 0, 0, 0, 0})             // unknown tag
	f.Add([]byte{0x01, 0x01, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile length
	valid := encodeFrame(f, &transport.Hello{Service: "classify"})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(valid, valid...))
	f.Add(encodeFrame(f, &transport.Done{}))
	f.Fuzz(drainHellos)
}
