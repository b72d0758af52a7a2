package ot

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Extended k-out-of-n transfer: after one IKNP base phase per session,
// every k-of-n transfer costs only symmetric crypto — no public-key
// operations. Each of the k instances uses the tree construction's key
// idea: the sender draws ⌈log₂ n⌉ key pairs, encrypts all n messages
// under per-index key paths, and delivers exactly the receiver's path keys
// through extended 1-of-2 transfers (k·⌈log₂ n⌉ of them per sample).
//
// Transfers always travel as a batch: one Extend call covers all B
// samples' choice bits, so B transfers cost a single extension round — B·k·
// ⌈log₂ n⌉ extended 1-of-2 transfers in one message pair. A single
// transfer is a batch of one. Each sample keeps its own fresh tree keys
// and ciphertext matrix; nothing is shared between samples beyond the
// (already index-hiding) extension columns, so the per-sample secrecy
// argument is that of one transfer. Several batches may be in flight per
// session (each holds its own IKNPExtension state), as long as the sender
// answers them in Extend order — its lockstep batch counter must advance
// in the receiver's sequence.

// checkKofNIndices validates one sample's index set for a k-of-n query.
func checkKofNIndices(n int, indices []int) error {
	if n < 2 {
		return fmt.Errorf("ot: need at least 2 messages, got %d", n)
	}
	if len(indices) == 0 || len(indices) > n {
		return fmt.Errorf("%w: k=%d indices for n=%d", ErrBadIndex, len(indices), n)
	}
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return fmt.Errorf("%w: %d", ErrBadIndex, idx)
		}
		if seen[idx] {
			return fmt.Errorf("%w: %d", ErrDuplicateIndex, idx)
		}
		seen[idx] = true
	}
	return nil
}

// appendPathChoices appends the ⌈log₂ n⌉ bit-path choices of every index.
func appendPathChoices(choices []int, indices []int, depth int) []int {
	for _, idx := range indices {
		for j := 0; j < depth; j++ {
			choices = append(choices, (idx>>j)&1)
		}
	}
	return choices
}

// drawTreeKeys draws fresh key pairs for k instances of depth levels from
// rng, appending the halves to x0/x1 in (instance, level) order. Keys are
// drawn in a fixed serial order so a deterministic rng yields identical
// wire bytes run to run.
func drawTreeKeys(rng io.Reader, k, depth int, x0, x1 [][]byte) ([][][2][]byte, [][]byte, [][]byte, error) {
	keys := make([][][2][]byte, k)
	for i := 0; i < k; i++ {
		keys[i] = make([][2][]byte, depth)
		for j := 0; j < depth; j++ {
			for b := 0; b < 2; b++ {
				key := make([]byte, treeKeyLen)
				if _, err := io.ReadFull(rng, key); err != nil {
					return nil, nil, nil, err
				}
				keys[i][j][b] = key
			}
			x0 = append(x0, keys[i][j][0])
			x1 = append(x1, keys[i][j][1])
		}
	}
	return keys, x0, x1, nil
}

// encryptInstances writes the k×n ciphertext block of one sample into dst
// (k·n·msgLen bytes, instance-major): message m is encrypted under
// instance i's key path for index m.
func encryptInstances(keys [][][2][]byte, msgs [][]byte, depth int, dst []byte) {
	k := len(keys)
	n := len(msgs)
	msgLen := len(msgs[0])
	path := make([][]byte, depth)
	for i := 0; i < k; i++ {
		for m := 0; m < n; m++ {
			for j := 0; j < depth; j++ {
				path[j] = keys[i][j][(m>>j)&1]
			}
			treePadXor(dst[(i*n+m)*msgLen:(i*n+m+1)*msgLen], msgs[m], path, m)
		}
	}
}

// checkUniformLen verifies all messages share one length.
func checkUniformLen(msgs [][]byte) error {
	for _, m := range msgs[1:] {
		if len(m) != len(msgs[0]) {
			return ErrMessageLen
		}
	}
	return nil
}

// recoverSample decrypts one sample's chosen messages from its flat
// ciphertext block (k·n·msgLen bytes, checked by the caller), given that
// sample's path keys in (instance, level) order.
func recoverSample(cts []byte, msgLen int, pathKeys [][]byte, indices []int, n, depth int) ([][]byte, error) {
	out := make([][]byte, len(indices))
	flat := make([]byte, len(indices)*msgLen)
	path := make([][]byte, depth)
	for i, idx := range indices {
		for j := 0; j < depth; j++ {
			key := pathKeys[i*depth+j]
			if len(key) != treeKeyLen {
				return nil, fmt.Errorf("%w: instance %d level %d key length", ErrIKNP, i, j)
			}
			path[j] = key
		}
		ct := cts[(i*n+idx)*msgLen : (i*n+idx+1)*msgLen]
		x := flat[i*msgLen : (i+1)*msgLen]
		treePadXor(x, ct, path, idx)
		out[i] = x
	}
	return out, nil
}

// ExtKofNBatchRequest is the receiver's one message for B samples.
type ExtKofNBatchRequest struct {
	IKNP *IKNPReceiverMsg
	// K and N are the per-sample transfer shape; B is the sample count.
	K, N, B int
}

// ExtKofNBatchResponse is the sender's one message for B samples.
type ExtKofNBatchResponse struct {
	IKNP *IKNPSenderMsg
	// Cts concatenates every sample's flat k×n ciphertext block in batch
	// order: sample b's block starts at b·k·n·MsgLen, and within it
	// instance i's encryption of message j occupies
	// [(i·n+j)·MsgLen, (i·n+j+1)·MsgLen). One blob instead of B·k·n nested slices keeps the
	// codec's work linear in bytes, not in message count.
	Cts    []byte
	MsgLen int
}

// ExtKofNBatchQuery is the receiver's in-flight batch state.
type ExtKofNBatchQuery struct {
	ext     *IKNPExtension
	indices [][]int
	n       int
	depth   int
}

// NewExtKofNBatchQuery opens B k-of-n transfers — one per index set — over
// a single IKNP extension round. Every sample must select exactly k
// distinct indices out of the same n.
func NewExtKofNBatchQuery(r *IKNPReceiver, n int, indices [][]int) (*ExtKofNBatchQuery, *ExtKofNBatchRequest, error) {
	if len(indices) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrIKNP)
	}
	k := len(indices[0])
	for b, idx := range indices {
		if len(idx) != k {
			return nil, nil, fmt.Errorf("%w: sample %d selects %d indices, want %d", ErrIKNP, b, len(idx), k)
		}
		if err := checkKofNIndices(n, idx); err != nil {
			return nil, nil, fmt.Errorf("ot: batch sample %d: %w", b, err)
		}
	}
	depth := treeDepth(n)
	choices := make([]int, 0, len(indices)*k*depth)
	kept := make([][]int, len(indices))
	for b, idx := range indices {
		choices = appendPathChoices(choices, idx, depth)
		kept[b] = append([]int(nil), idx...)
	}
	ext, msg, err := r.Extend(choices)
	if err != nil {
		return nil, nil, err
	}
	q := &ExtKofNBatchQuery{ext: ext, indices: kept, n: n, depth: depth}
	return q, &ExtKofNBatchRequest{IKNP: msg, K: k, N: n, B: len(indices)}, nil
}

// ExtKofNBatchRespond answers one batch: msgs[b] holds sample b's n
// messages (uniform length within a sample). Fresh tree keys are drawn
// per sample and all B·k·depth key pairs ride one extension response.
func ExtKofNBatchRespond(s *IKNPSender, req *ExtKofNBatchRequest, msgs [][][]byte, rng io.Reader) (*ExtKofNBatchResponse, error) {
	if req == nil || req.IKNP == nil {
		return nil, fmt.Errorf("%w: nil batch request", ErrIKNP)
	}
	if len(msgs) != req.B || req.B < 1 {
		return nil, fmt.Errorf("%w: %d samples for declared B=%d", ErrIKNP, len(msgs), req.B)
	}
	n := req.N
	k := req.K
	depth := treeDepth(n)
	if n < 2 || k < 1 || k > n || req.IKNP.M != req.B*k*depth {
		return nil, fmt.Errorf("%w: batch size %d for B=%d k=%d depth=%d", ErrIKNP, req.IKNP.M, req.B, k, depth)
	}
	msgLen := len(msgs[0][0])
	for b, sample := range msgs {
		if len(sample) != n {
			return nil, fmt.Errorf("%w: sample %d has %d messages for n=%d", ErrIKNP, b, len(sample), n)
		}
		if err := checkUniformLen(sample); err != nil {
			return nil, fmt.Errorf("ot: batch sample %d: %w", b, err)
		}
		if len(sample[0]) != msgLen {
			return nil, fmt.Errorf("%w: sample %d message length %d, want %d across the batch", ErrIKNP, b, len(sample[0]), msgLen)
		}
	}
	perSample := make([][][][2][]byte, 0, req.B)
	x0 := make([][]byte, 0, req.B*k*depth)
	x1 := make([][]byte, 0, req.B*k*depth)
	for b := 0; b < req.B; b++ {
		keys, nx0, nx1, err := drawTreeKeys(rng, k, depth, x0, x1)
		if err != nil {
			return nil, err
		}
		x0, x1 = nx0, nx1
		perSample = append(perSample, keys)
	}
	iknpResp, err := s.Respond(req.IKNP, x0, x1)
	if err != nil {
		return nil, err
	}
	block := k * n * msgLen
	cts := make([]byte, req.B*block)
	// All randomness (tree keys) was drawn serially above, so sharding
	// the per-sample tree encryption across workers is pure arithmetic:
	// the ciphertext blob is bit-identical at every GOMAXPROCS.
	span := obs.Start(obs.PhaseOTPad)
	_ = parallel.For(req.B, func(b int) error {
		encryptInstances(perSample[b], msgs[b], depth, cts[b*block:(b+1)*block])
		return nil
	})
	span.End()
	return &ExtKofNBatchResponse{IKNP: iknpResp, Cts: cts, MsgLen: msgLen}, nil
}

// Recover decrypts every sample's chosen messages, in per-sample index
// order. The declared MsgLen is bounded by the blob before it sizes
// anything, so a hostile length cannot wrap the block arithmetic.
func (q *ExtKofNBatchQuery) Recover(resp *ExtKofNBatchResponse) ([][][]byte, error) {
	if resp == nil || resp.IKNP == nil || resp.MsgLen < 0 || resp.MsgLen > len(resp.Cts) {
		return nil, fmt.Errorf("%w: bad batch response", ErrIKNP)
	}
	k := len(q.indices[0])
	block := k * q.n * resp.MsgLen
	if len(resp.Cts) != len(q.indices)*block {
		return nil, fmt.Errorf("%w: ciphertext blob length %d for B=%d k=%d n=%d msgLen=%d", ErrIKNP, len(resp.Cts), len(q.indices), k, q.n, resp.MsgLen)
	}
	pathKeys, err := q.ext.Recover(resp.IKNP)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(q.indices))
	span := obs.Start(obs.PhaseOTPad)
	defer span.End()
	err = parallel.For(len(q.indices), func(b int) error {
		stride := b * k * q.depth
		got, err := recoverSample(resp.Cts[b*block:(b+1)*block], resp.MsgLen, pathKeys[stride:stride+k*q.depth], q.indices[b], q.n, q.depth)
		if err != nil {
			return fmt.Errorf("ot: batch sample %d: %w", b, err)
		}
		out[b] = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
