package ot

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Extended k-out-of-n transfer: after one IKNP base phase per session,
// every k-of-n transfer costs only symmetric crypto — no public-key
// operations. The construction is a random-OT tree with once-sent
// messages:
//
//   - Tree keys are random-OT outputs. Each of the k instances of a
//     sample is a tree of ⌈log₂ n⌉ levels, and level l's key pair is the
//     pair (H(j, q_j), H(j, q_j ⊕ s)) of one extended transfer j (iknp.go),
//     of which the receiver, choosing bit l of its index, derives one.
//     No key travels: the sender draws none and sends none.
//   - Messages are sent once. Per sample the sender sends each message m
//     once, under a pad of its key K_m in its own domain (padDomainMsg).
//     K_m is the path digest of m in instance 0's tree, so no key is
//     drawn; every other instance i carries K_m under the tree pad of
//     m's key path in its own tree, for every m.
//   - Path digests are shared. A tree pad absorbs its path keys through
//     an MMO chain (pad.go); the sender computes each chain once per
//     low-bit prefix, Σ_l min(2^(l+1), n) AES calls per instance instead
//     of n·⌈log₂ n⌉.
//
// A sample's response block is therefore (k−1)·n·16 bytes of tree
// ciphertexts and n·w bytes of messages, the once-sent block that the
// Naor–Pinkas k-of-n also sends (sealOnceSent, kofn.go), and a batch's
// response is one blob of B·((k−1)·n·16 + n·w) bytes, from which the
// receiver derives w.
//
// Privacy. The receiver holds one key path per instance, so it can open
// at most one K_m per instance — at most k in all — and so at most k
// messages: every other K_m is a digest of instance 0's tree, or sits
// under a tree pad of another instance, whose path includes a key it
// lacks, which the correlation-robustness of H keeps pseudorandom. The
// sender's view is the IKNP u-columns alone.
//
// Transfers always travel as a batch: one Extend call covers all B
// samples' choice bits, so B transfers cost a single extension round — B·k·
// ⌈log₂ n⌉ extended transfers in one message pair. A single transfer is a
// batch of one. Each sample keeps its own tree keys, and so its own
// message keys, and its own ciphertexts; nothing is shared between
// samples beyond the (already index-hiding) extension columns, so the
// per-sample secrecy argument is that of one transfer. Several batches
// may be in flight per session (each holds its own IKNPExtension state),
// as long as the sender answers them in Extend order — its lockstep
// batch counter must advance in the receiver's sequence.

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

// encryptSample writes one sample's once-sent block into dst
// (sealOnceSent, kofn.go), whose pad seeds are the path digests of every
// index in every instance's tree. k0 and k1 hold the sample's k·depth
// random-OT key pairs in (instance, level) order, and digests is k·n·16
// bytes of scratch.
func encryptSample(dst, k0, k1, digests []byte, msgs [][]byte) {
	n := len(msgs)
	k := len(digests) / (n * treeKeyLen)
	stride := len(k0) / k
	s := mmoPool.Get().(*mmoScratch)
	for i := 0; i < k; i++ {
		s.pathDigests(digests[i*n*treeKeyLen:(i+1)*n*treeKeyLen], k0[i*stride:(i+1)*stride], k1[i*stride:(i+1)*stride], n)
	}
	mmoPool.Put(s)
	if freshTrace != nil {
		for off := 0; off < len(digests); off += treeKeyLen {
			freshTrace(digests[off : off+treeKeyLen])
		}
	}
	sealOnceSent(dst, digests, msgs)
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

// recoverSample decrypts one sample's chosen messages from its response
// block (checked by the caller) into out, given that sample's path keys in
// (instance, level) order: the digest of instance i's path is K_idx in
// instance 0 and opens K_idx in any other, and K_idx opens message idx.
func recoverSample(block, pathKeys []byte, indices []int, n int, out [][]byte) {
	stride := len(pathKeys) / len(indices)
	s := mmoPool.Get().(*mmoScratch)
	for i, idx := range indices {
		digest := s.pathDigest(pathKeys[i*stride : (i+1)*stride])
		s.openOnceSent(out[i], block, &digest, n, i, idx)
	}
	mmoPool.Put(s)
}

// ExtKofNBatchRequest is the receiver's one message for B samples.
type ExtKofNBatchRequest struct {
	IKNP *IKNPReceiverMsg
	// K and N are the per-sample transfer shape; B is the sample count.
	K, N, B int
}

// ExtKofNBatchResponse is the sender's one message for B samples.
type ExtKofNBatchResponse struct {
	// Cts concatenates every sample's block in batch order, B·((k−1)·n·16
	// + n·w) bytes: sample b's block starts at b·((k−1)·n·16 + n·w), and
	// within it instance i ≥ 1's tree ciphertext of message key K_j
	// occupies [((i−1)·n+j)·16, +16) and message j under K_j occupies
	// [(k−1)·n·16 + j·w, +w). The message width w is not sent: the
	// receiver, knowing B, k and n, derives it from the blob.
	Cts []byte
}

// ExtKofNBatchQuery is the receiver's in-flight batch state.
type ExtKofNBatchQuery struct {
	ext     *IKNPExtension
	indices [][]int
	n       int
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
	q := &ExtKofNBatchQuery{ext: ext, indices: kept, n: n}
	return q, &ExtKofNBatchRequest{IKNP: msg, K: k, N: n, B: len(indices)}, nil
}

// ExtKofNBatchRespond answers one batch: msgs[b] holds sample b's n
// messages (one length across the batch). Every key comes from the
// extension itself, so the response reads nothing from its io.Reader, a
// parameter it keeps for its callers, and it is bit-identical at any
// worker count.
func ExtKofNBatchRespond(s *IKNPSender, req *ExtKofNBatchRequest, msgs [][][]byte, _ io.Reader) (*ExtKofNBatchResponse, error) {
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
	k0, k1, err := s.Keys(req.IKNP)
	if err != nil {
		return nil, err
	}
	block := (k-1)*n*treeKeyLen + n*msgLen
	cts := make([]byte, req.B*block)
	digestBytes := k * n * treeKeyLen
	digests := make([]byte, req.B*digestBytes) // per-sample scratch
	// Sharding the per-sample encryption across workers is pure
	// arithmetic: the blob is bit-identical at every GOMAXPROCS.
	pathBytes := k * depth * treeKeyLen
	span := obs.Start(obs.PhaseOTPad)
	_ = parallel.For(req.B, func(b int) error {
		paths := b * pathBytes
		encryptSample(cts[b*block:(b+1)*block], k0[paths:paths+pathBytes], k1[paths:paths+pathBytes],
			digests[b*digestBytes:(b+1)*digestBytes], msgs[b])
		return nil
	})
	span.End()
	return &ExtKofNBatchResponse{Cts: cts}, nil
}

// Recover decrypts every sample's chosen messages, in per-sample index
// order. The blob must be B·((k−1)·n·16 + n·w) bytes for some message
// width w; any other length is refused before anything is sized by it.
func (q *ExtKofNBatchQuery) Recover(resp *ExtKofNBatchResponse) ([][][]byte, error) {
	if resp == nil {
		return nil, fmt.Errorf("%w: nil batch response", ErrIKNP)
	}
	batch, k := len(q.indices), len(q.indices[0])
	treeBytes := (k - 1) * q.n * treeKeyLen
	size := len(resp.Cts)
	if size%batch != 0 || size/batch < treeBytes || (size/batch-treeBytes)%q.n != 0 {
		return nil, fmt.Errorf("%w: response blob of %d bytes is not B·((k−1)·n·16 + n·w) for B=%d k=%d n=%d", ErrIKNP, size, batch, k, q.n)
	}
	block := size / batch
	w := (block - treeBytes) / q.n
	pathKeys := q.ext.Keys()
	pathBytes := k * treeDepth(q.n) * treeKeyLen
	out := make([][][]byte, batch)
	views := make([][]byte, batch*k)
	flat := make([]byte, batch*k*w)
	for j := range views {
		views[j] = flat[j*w : (j+1)*w : (j+1)*w]
	}
	for b := range out {
		out[b] = views[b*k : (b+1)*k : (b+1)*k]
	}
	span := obs.Start(obs.PhaseOTPad)
	_ = parallel.For(batch, func(b int) error {
		recoverSample(resp.Cts[b*block:(b+1)*block], pathKeys[b*pathBytes:(b+1)*pathBytes], q.indices[b], q.n, out[b])
		return nil
	})
	span.End()
	return out, nil
}
