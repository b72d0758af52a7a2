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
	"repro/internal/transport"
)

// allocProbeBatch builds a representative batched classification
// request: 8 evaluations of 4 masked pairs each, with realistic
// field-element magnitudes.
func allocProbeBatch() *transport.ClassifyBatchRequest {
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
	return &transport.ClassifyBatchRequest{Evals: evals}
}

// TestBinaryBatchSendAllocs measures steady-state allocations per Send,
// with writes discarded so buffer growth in the sink does not pollute the
// count. The only per-message allocations should be the big.Int magnitude
// buffers (96 field elements in this probe) plus small fixed overhead.
// Headroom, not exactness.
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
	const maxAllocs = 160
	if allocs > maxAllocs {
		t.Fatalf("batch send costs %.1f allocs/op, want <= %d (per-message buffer construction crept back in)", allocs, maxAllocs)
	}
}
