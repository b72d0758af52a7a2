package transport

// The frame layout (DESIGN.md §12), the frame tag registry mapping
// payload types to their wire tags, and the binary encodings of the
// transport-layer message types. Every message of a session, the Hello
// included, crosses as one frame:
//
//	+---------+---------+-----------------+-----------------+=========+
//	| version |   tag   |  stream (u32BE) |  length (u32BE) | payload |
//	|  1 byte |  1 byte |     4 bytes     |     4 bytes     | n bytes |
//	+---------+---------+-----------------+-----------------+=========+
//
// version is wireVersion (0x01); any other value is rejected with
// ErrWireVersion before the payload is read, so version skew fails fast
// instead of hanging. tag identifies the payload type (tag 0 carries a
// remote error string instead of a message). length bounds the payload
// at maxFramePayload, and the receive buffer grows only as payload bytes
// arrive. Tags are part of the wire contract: existing values must never
// be renumbered, new types append.

import (
	"errors"

	"repro/internal/classify"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/wire"
)

// wireVersion is the frame version this build speaks.
const wireVersion byte = 0x01

// frameHeaderSize is the fixed frame header:
// version(1) + tag(1) + stream(4) + length(4).
const frameHeaderSize = 10

// maxFramePayload bounds a frame payload. It matches the decode bound of
// the wire primitives; a header announcing more is rejected before any
// payload byte is read.
const maxFramePayload = 64 << 20

// maxHelloPayload bounds the Hello payload PeekHello accepts: a few short
// strings plus at most one resumption ticket, which takes 2,185 bytes (a
// 28-byte header and nonce, the sealed κ = 128 base seeds at 16 bytes
// each, the contract digest and the GCM tag).
const maxHelloPayload = 4 << 10

// ErrWireVersion reports a frame whose version byte does not match this
// build's wireVersion. A peer that opens with anything but a frame — a
// gob stream starts with a message length, never 0x01 — fails here.
var ErrWireVersion = errors.New("transport: wire version mismatch")

// ErrWireCodec reports a wire codec name other than CodecBinary.
var ErrWireCodec = errors.New("transport: unsupported wire codec")

// CodecBinary names the versioned binary framing, the only one a
// connection speaks.
//
// Deprecated: there is no codec to choose; Options.WireCodec and
// Conn.UseCodec accept this name only so existing callers keep building.
const CodecBinary = "binary"

// Frame tags. Tag 0 is reserved for the error frame (payload is the
// remote error string, not a message).
const (
	tagErr              byte = 0
	tagHello            byte = 1
	tagClassifySpec     byte = 2
	tagEvalRequest      byte = 3
	tagBatchSetup       byte = 4
	tagBatchChoice      byte = 5
	tagBatchTransfer    byte = 6
	tagSimilaritySpec   byte = 7
	tagClearShare       byte = 8
	tagKernelSpec       byte = 9
	tagKernelClearShare byte = 10
	// 11–12: retired, do not reuse. 11 carried the kernel similarity's
	// area scale, 12 the similarity round header.
	tagDone byte = 13
	// 14–18: retired, do not reuse. 14–16 carried the IKNP base phase,
	// which now speaks the batch messages under tags 4–6.
	tagFastBatchRequest  byte = 19
	tagFastBatchResponse byte = 20
	// 21–24: retired, do not reuse.
	tagSessionTicket byte = 25
	tagResumeInfo    byte = 26
)

// binMsg resolves a payload to its frame tag and wire encoder. The type
// switch is the entire dispatch — no reflection on the send path.
func binMsg(v any) (byte, wire.Msg, bool) {
	switch m := v.(type) {
	case *Hello:
		return tagHello, m, true
	case *classify.Spec:
		return tagClassifySpec, m, true
	case *ompe.EvalRequest:
		return tagEvalRequest, m, true
	case *ot.BatchSetup:
		return tagBatchSetup, m, true
	case *ot.BatchChoice:
		return tagBatchChoice, m, true
	case *ot.BatchTransfer:
		return tagBatchTransfer, m, true
	case *similarity.Spec:
		return tagSimilaritySpec, m, true
	case *similarity.ClearShare:
		return tagClearShare, m, true
	case *similarity.KernelSpec:
		return tagKernelSpec, m, true
	case *similarity.KernelClearShare:
		return tagKernelClearShare, m, true
	case *Done:
		return tagDone, m, true
	case *ompe.FastBatchRequest:
		return tagFastBatchRequest, m, true
	case *ompe.FastBatchResponse:
		return tagFastBatchResponse, m, true
	case *SessionTicket:
		return tagSessionTicket, m, true
	case *ResumeInfo:
		return tagResumeInfo, m, true
	default:
		return 0, nil, false
	}
}

// newBinPayload allocates the concrete payload type for a frame tag. The
// returned value is both the decode target (wire.Msg) and the payload
// handed to Recv's type assertions (any).
func newBinPayload(tag byte) (wire.Msg, bool) {
	switch tag {
	case tagHello:
		return new(Hello), true
	case tagClassifySpec:
		return new(classify.Spec), true
	case tagEvalRequest:
		return new(ompe.EvalRequest), true
	case tagBatchSetup:
		return new(ot.BatchSetup), true
	case tagBatchChoice:
		return new(ot.BatchChoice), true
	case tagBatchTransfer:
		return new(ot.BatchTransfer), true
	case tagSimilaritySpec:
		return new(similarity.Spec), true
	case tagClearShare:
		return new(similarity.ClearShare), true
	case tagKernelSpec:
		return new(similarity.KernelSpec), true
	case tagKernelClearShare:
		return new(similarity.KernelClearShare), true
	case tagDone:
		return new(Done), true
	case tagFastBatchRequest:
		return new(ompe.FastBatchRequest), true
	case tagFastBatchResponse:
		return new(ompe.FastBatchResponse), true
	case tagSessionTicket:
		return new(SessionTicket), true
	case tagResumeInfo:
		return new(ResumeInfo), true
	default:
		return nil, false
	}
}

// EncodeWire implements the wire codec.
func (h *Hello) EncodeWire(w *wire.Writer) {
	w.String(h.Service)
	w.Bool(h.ResumeOffered)
	w.ByteSlice(h.ResumeTicket)
}

// DecodeWire implements the wire codec.
func (h *Hello) DecodeWire(r *wire.Reader) {
	h.Service = r.String()
	h.ResumeOffered = r.Bool()
	h.ResumeTicket = r.ByteSlice()
}

// EncodeWire implements the wire codec. Done carries no payload.
func (d *Done) EncodeWire(w *wire.Writer) {}

// DecodeWire implements the wire codec.
func (d *Done) DecodeWire(r *wire.Reader) {}
