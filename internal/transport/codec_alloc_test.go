package transport_test

// Allocation pinning for the send path: a batched request costs no
// reflection and no per-message encoder state, so its steady-state
// allocation count is pinned under an absolute ceiling.

import (
	"bytes"
	"testing"

	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/transport"
)

// allocProbeBatch builds a representative batched classification
// request: 8 samples of 4 pairs each over 2^255−19, a 16-byte point seed
// and a record of two 32-byte elements per pair, plus the OT-extension
// columns for them.
func allocProbeBatch() *ompe.FastBatchRequest {
	evals := make([]*ompe.EvalRequest, 8)
	for i := range evals {
		evals[i] = &ompe.EvalRequest{Seed: bytes.Repeat([]byte{byte(0x20 + i)}, ot.SeedLen), Packed: bytes.Repeat([]byte{byte(0x10 + i)}, 4*2*32)}
	}
	const m = 8 * 4 // one extended transfer per sample and chosen pair
	return &ompe.FastBatchRequest{
		Evals: evals,
		OT: &ot.ExtKofNBatchRequest{
			IKNP: &ot.IKNPReceiverMsg{U: bytes.Repeat([]byte{0x5A}, 128*m/8), M: m},
			K:    4, N: 8, B: 8,
		},
	}
}

// TestBinaryBatchSendAllocs measures steady-state allocations per Send,
// with writes discarded so buffer growth in the sink does not pollute the
// count. Every payload field is a byte slice or a varint appended to the
// recycled encode buffer, so a send allocates only its small fixed
// overhead: measured at 2 allocs/op; the ceiling is headroom, not
// exactness.
func TestBinaryBatchSendAllocs(t *testing.T) {
	msg := allocProbeBatch()
	conn := transport.NewConn(&byteStream{r: bytes.NewReader(nil)})
	// Warm up: the reusable encode buffer grows once.
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 4
	if allocs > maxAllocs {
		t.Fatalf("batch send costs %.1f allocs/op, want <= %d (per-message buffer construction crept back in)", allocs, maxAllocs)
	}
}
