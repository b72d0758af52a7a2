package transport_test

// Allocation pinning for the send path: a batched request costs no
// reflection and no per-message encoder state, so its steady-state
// allocation count is pinned under an absolute ceiling.

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/transport"
)

// allocProbeBatch builds a representative batched classification
// request: 8 evaluations of 4 masked pairs each, with realistic
// field-element magnitudes, plus the OT-extension columns for them.
func allocProbeBatch() *ompe.FastBatchRequest {
	evals := make([]*ompe.EvalRequest, 8)
	for i := range evals {
		pairs := make([]ompe.Pair, 4)
		for j := range pairs {
			pairs[j] = ompe.Pair{
				V: new(big.Int).Lsh(big.NewInt(int64(1000*i+j+1)), 200),
				Z: field.Vec{
					new(big.Int).Lsh(big.NewInt(int64(j+2)), 180),
					new(big.Int).Lsh(big.NewInt(int64(j+3)), 180),
				},
			}
		}
		evals[i] = &ompe.EvalRequest{Pairs: pairs, Packed: bytes.Repeat([]byte{0xA5}, 64)}
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
// count. The only per-message allocations should be the big.Int magnitude
// buffers (96 field elements in this probe) plus small fixed overhead;
// the OT-extension columns encode without allocating. Measured at 98
// allocs/op; the ceiling is headroom, not exactness.
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
	const maxAllocs = 128
	if allocs > maxAllocs {
		t.Fatalf("batch send costs %.1f allocs/op, want <= %d (per-message buffer construction crept back in)", allocs, maxAllocs)
	}
}
