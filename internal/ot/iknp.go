package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ec25519"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// IKNP oblivious-transfer extension (Ishai–Kilian–Nissim–Petrank, semi-
// honest variant) in its random-OT form (Asharov et al. 2013): m random
// 1-out-of-2 transfers for the price of κ = 128 base transfers plus
// symmetric crypto. The roles of the base phase are reversed — the
// OT-extension SENDER acts as the base-OT *receiver* with a random choice
// vector s, and the OT-extension RECEIVER acts as the base-OT *sender*,
// whose random-OT slot keys are its seed pairs.
//
// Protocol (column i < κ, row j < m):
//
//	base OT:  slot keys (k0_i, k1_i) to the receiver, k(s_i)_i to the sender
//	receiver: t_i = G(k0_i); u_i = t_i ⊕ G(k1_i) ⊕ r
//	sender:   q_i = G(k(s_i)_i) ⊕ s_i·u_i
//	          ⇒ row q_j = t_j ⊕ r_j·s
//	sender:   key pair (K0_j, K1_j) = (H(j, q_j), H(j, q_j ⊕ s))
//	receiver: K(r_j)_j = H(j, t_j)
//
// The sender sends nothing back: its keys are the transfer's output, and
// a caller that wants chosen messages encrypts them under the keys itself
// (extkofn.go). The receiver's view of K(1−r_j)_j is H at a point that
// differs from t_j by the secret s, so it stays pseudorandom.
//
// The PRG G is AES-128 in counter mode (the 16-byte seeds are AES keys,
// each expanded through a cipher built once per session), columns are
// turned into rows with an 8×8 bit-block transpose, and the correlation-
// robust hash H is a fixed-key AES-128 compression per 16-byte block
// (pad.go) — together these keep the extension's per-transfer cost to a
// few dozen nanoseconds of symmetric work.

// iknpKappa is the computational security parameter (base-OT count).
const iknpKappa = 128

// iknpRowBytes is the packed size of one transposed row (κ bits).
const iknpRowBytes = iknpKappa / 8

// ErrIKNP reports malformed extension-protocol messages.
var ErrIKNP = errors.New("ot: malformed IKNP message")

// IKNPReceiverMsg carries the receiver's masked columns u_1..u_κ.
type IKNPReceiverMsg struct {
	// U holds κ packed bit-columns of ⌈m/8⌉ bytes each, concatenated in
	// column order — one flat blob so the codec moves it as a single
	// byte-slice instead of κ separate ones.
	U []byte
	// M is the number of extended transfers.
	M int
}

// IKNPSender is the OT-extension sender: it derives m random key pairs
// and runs the base phase as a base-OT receiver with random choice bits.
type IKNPSender struct {
	s       []byte // κ choice bits, packed
	ciphers []cipher.Block
	seeds   []byte // κ recovered base seeds, flat 16-byte rows (kept for Snapshot)
	batch   uint32 // lockstep batch counter: fresh PRG columns per batch

	// Per-batch scratch reused across Keys calls (the returned keys are
	// fresh buffers, never these).
	qFlat []byte
	rows  []byte

	baseReceiver *BatchReceiver // base-phase state, nil once finished
}

// IKNPReceiver is the OT-extension receiver: it inputs m choice bits,
// learns one key of each pair, and runs the base phase as a base-OT
// sender whose slot keys are its seed pairs.
type IKNPReceiver struct {
	seed0    [][]byte
	seed1    [][]byte
	ciphers0 []cipher.Block
	ciphers1 []cipher.Block
	batch    uint32 // lockstep batch counter: fresh PRG columns per batch

	baseSender *BatchSender // base-phase state, nil once finished
}

// IKNPExtension is the receiver-side state of one Extend batch. Each
// batch's choice bits and PRG columns live here rather than on the
// receiver, so several batches can be in flight at once: the caller may
// issue Extend for batch n+1 before recovering batch n, as long as the
// sender answers batches in Extend order (its lockstep batch counter must
// advance in the same sequence).
type IKNPExtension struct {
	m int
	t [][]byte // κ columns of m bits
}

// The base phase is one batch of κ 1-of-2 random OTs (naorpinkas.go) in
// which the OT-extension receiver plays the base-OT sender, and the
// batch's slot keys are the seeds: the receiver's pair (k0_i, k1_i) is
// instance i's two slot keys, and the sender's k(s_i)_i the one it
// recovers. No seed is drawn or encrypted, since IKNP needs random seed
// pairs, not chosen ones. The phase speaks the batch messages: a
// BatchSetup of the one constraint the κ transfers share (32 bytes), the
// extension sender's BatchChoice of κ public keys under its secret
// vector s (32·κ bytes), and a BatchTransfer of one R and no ciphertexts
// (32 bytes). Three messages total, so the base phase fits one round trip
// plus one message over a transport.
type (
	// IKNPBaseSetup is the base phase's BatchSetup.
	//
	// Deprecated: use BatchSetup.
	IKNPBaseSetup = BatchSetup
	// IKNPBaseChoice is the base phase's BatchChoice.
	//
	// Deprecated: use BatchChoice.
	IKNPBaseChoice = BatchChoice
	// IKNPBaseTransfer is the base phase's BatchTransfer.
	//
	// Deprecated: use BatchTransfer.
	IKNPBaseTransfer = BatchTransfer
)

// SetPad does nothing.
//
// Deprecated: every session runs the fixed-key AES pad.
func (s *IKNPSender) SetPad(PadFunc) {}

// SetPad does nothing.
//
// Deprecated: every session runs the fixed-key AES pad.
func (r *IKNPReceiver) SetPad(PadFunc) {}

// SetParallelism does nothing.
//
// Deprecated: every fan-out region runs at GOMAXPROCS.
func (s *IKNPSender) SetParallelism(int) {}

// NewIKNPReceiverBase creates the extension receiver and its base-phase
// setup message (it acts as the base-OT sender, and its seed pairs are
// the batch's slot keys, which exist once BaseRespond has answered).
func NewIKNPReceiverBase(group Group, rng io.Reader) (*IKNPReceiver, *BatchSetup, error) {
	// The base phase runs κ real Naor–Pinkas 1-of-2 instances; count them
	// like the direct batch path does, so session metrics show the base-OT
	// work the extension amortizes.
	obs.Add(obs.CtrOTInstances, iknpKappa)
	s, setup, err := newBatchSender(group, 2, iknpKappa, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ot: iknp base setup: %w", err)
	}
	return &IKNPReceiver{baseSender: s}, setup, nil
}

// NewIKNPSenderBase creates the extension sender from the receiver's
// base setup, returning its choice message.
func NewIKNPSenderBase(group Group, setup *BatchSetup, rng io.Reader) (*IKNPSender, *BatchChoice, error) {
	if setup == nil || len(setup.Cs) != ec25519.PointLen {
		return nil, nil, fmt.Errorf("%w: base setup must carry 1 constraint", ErrIKNP)
	}
	send := &IKNPSender{
		s:       make([]byte, iknpKappa/8),
		ciphers: make([]cipher.Block, iknpKappa),
	}
	if _, err := io.ReadFull(rng, send.s); err != nil {
		return nil, nil, err
	}
	bits := make([]int, iknpKappa)
	for i := range bits {
		bits[i] = getBit(send.s, i)
	}
	receiver, choice, err := newBatchReceiver(group, 2, bits, setup, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ot: iknp base choice: %w", err)
	}
	send.baseReceiver = receiver
	return send, choice, nil
}

// BaseRespond is the extension receiver's answer to the sender's base
// choices: R alone. The batch's slot keys become the receiver's seed
// pairs, (k0_i, k1_i) those of instance i.
func (r *IKNPReceiver) BaseRespond(choice *BatchChoice, rng io.Reader) (*BatchTransfer, error) {
	if choice == nil || len(choice.PK0s) != iknpKappa*ec25519.PointLen || r.baseSender == nil {
		return nil, fmt.Errorf("%w: bad base choice", ErrIKNP)
	}
	bigR, keys, err := r.baseSender.respond(choice.PK0s, rng)
	if err != nil {
		return nil, fmt.Errorf("ot: iknp base respond: %w", err)
	}
	r.seed0 = make([][]byte, iknpKappa)
	r.seed1 = make([][]byte, iknpKappa)
	r.ciphers0 = make([]cipher.Block, iknpKappa)
	r.ciphers1 = make([]cipher.Block, iknpKappa)
	for i := 0; i < iknpKappa; i++ {
		// Slot 2i + j holds seed j of instance i.
		pair := keys[2*i*treeKeyLen:]
		r.seed0[i] = pair[:treeKeyLen:treeKeyLen]
		r.seed1[i] = pair[treeKeyLen : 2*treeKeyLen : 2*treeKeyLen]
		if r.ciphers0[i], err = aes.NewCipher(r.seed0[i]); err != nil {
			return nil, err
		}
		if r.ciphers1[i], err = aes.NewCipher(r.seed1[i]); err != nil {
			return nil, err
		}
	}
	r.baseSender = nil // one-shot
	return &BatchTransfer{R: bigR}, nil
}

// BaseFinish completes the extension sender's base phase. The transfer
// carries R and no ciphertexts; anything else is ErrIKNP.
func (s *IKNPSender) BaseFinish(tr *BatchTransfer) error {
	if tr == nil || s.baseReceiver == nil {
		return fmt.Errorf("%w: bad base transfer", ErrIKNP)
	}
	if len(tr.Cts) != 0 {
		return fmt.Errorf("%w: base transfer carries %d ciphertext bytes, want none", ErrIKNP, len(tr.Cts))
	}
	// The chosen slot keys k(s_i)_i are the seeds, flat 16-byte rows.
	// They are retained alongside the expanded ciphers: a session
	// snapshot (see resume.go) must carry the raw key material, because a
	// cipher.Block cannot be serialized back into its key.
	seeds, err := s.baseReceiver.recover(tr.R)
	if err != nil {
		return fmt.Errorf("ot: iknp base recover: %w", err)
	}
	for i := range s.ciphers {
		if s.ciphers[i], err = aes.NewCipher(seeds[i*treeKeyLen : (i+1)*treeKeyLen]); err != nil {
			return err
		}
	}
	s.seeds = seeds
	s.baseReceiver = nil
	return nil
}

// NewIKNP runs the complete base phase in memory (both roles) and returns
// the two extension endpoints ready for any number of batches.
func NewIKNP(group Group, rng io.Reader) (*IKNPSender, *IKNPReceiver, error) {
	recv, setup, err := NewIKNPReceiverBase(group, rng)
	if err != nil {
		return nil, nil, err
	}
	send, choice, err := NewIKNPSenderBase(group, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	tr, err := recv.BaseRespond(choice, rng)
	if err != nil {
		return nil, nil, err
	}
	if err := send.BaseFinish(tr); err != nil {
		return nil, nil, err
	}
	return send, recv, nil
}

// Extend prepares the receiver's side of one batch: choice bits r (one per
// transfer) produce the masked-column message for the sender and the
// per-batch state that derives the chosen keys.
func (r *IKNPReceiver) Extend(choices []int) (*IKNPExtension, *IKNPReceiverMsg, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrIKNP)
	}
	if r.baseSender != nil { // the seeds are slot keys BaseRespond derives
		return nil, nil, fmt.Errorf("%w: base phase incomplete", ErrIKNP)
	}
	ext := &IKNPExtension{m: m}
	bits := make([]byte, (m+7)/8) // choice bits, packed
	for j, c := range choices {
		if c != 0 && c != 1 {
			return nil, nil, fmt.Errorf("%w: choice %d at %d", ErrIKNP, c, j)
		}
		if c == 1 {
			setBit(bits, j)
		}
	}
	cols := (m + 7) / 8
	r.batch++
	ext.t = make([][]byte, iknpKappa)
	tFlat := make([]byte, iknpKappa*cols)
	uFlat := make([]byte, iknpKappa*cols)
	span := obs.Start(obs.PhaseOTExtend)
	batch := r.batch
	_ = parallel.For(iknpKappa, func(i int) error {
		// Fresh pseudorandom columns per batch: reusing a column across
		// two choice vectors would leak r ⊕ r' and repeat pads. The fills
		// are pure (seeds fixed at the base phase, batch counter already
		// advanced), so fanning columns across workers keeps the wire
		// bytes bit-identical at any GOMAXPROCS.
		t0 := tFlat[i*cols : (i+1)*cols]
		prgInto(r.ciphers0[i], i, batch, t0)
		ext.t[i] = t0
		ui := uFlat[i*cols : (i+1)*cols]
		prgInto(r.ciphers1[i], i, batch, ui)
		for b := range ui {
			ui[b] ^= t0[b] ^ bits[b]
		}
		return nil
	})
	span.End()
	return ext, &IKNPReceiverMsg{U: uFlat, M: m}, nil
}

// Keys consumes the receiver's columns and derives the random-OT key pair
// of every transfer in the batch: the first blob holds every K0_j, the
// second every K1_j, 16 bytes each, transfer j's at [16j, 16j+16).
func (s *IKNPSender) Keys(msg *IKNPReceiverMsg) ([]byte, []byte, error) {
	if msg == nil || msg.M <= 0 {
		return nil, nil, fmt.Errorf("%w: bad column message", ErrIKNP)
	}
	if s.baseReceiver != nil {
		return nil, nil, fmt.Errorf("%w: base phase incomplete", ErrIKNP)
	}
	m := msg.M
	cols := (m + 7) / 8
	if len(msg.U) != iknpKappa*cols {
		return nil, nil, fmt.Errorf("%w: column block length %d, want %d", ErrIKNP, len(msg.U), iknpKappa*cols)
	}
	s.batch++
	// q columns: q_i = G(k(s_i)_i) ⊕ s_i·u_i. The flats are per-sender
	// scratch: the keys never reference them, so reusing them across
	// batches trades ~2·κ·cols bytes of garbage per batch for none.
	if cap(s.qFlat) < iknpKappa*cols {
		s.qFlat = make([]byte, iknpKappa*cols)
	}
	qFlat := s.qFlat[:iknpKappa*cols]
	q := make([][]byte, iknpKappa)
	span := obs.Start(obs.PhaseOTExtend)
	batch := s.batch
	_ = parallel.For(iknpKappa, func(i int) error {
		qi := qFlat[i*cols : (i+1)*cols]
		prgInto(s.ciphers[i], i, batch, qi)
		if getBit(s.s, i) == 1 {
			ui := msg.U[i*cols : (i+1)*cols]
			for b := range qi {
				qi[b] ^= ui[b]
			}
		}
		q[i] = qi
		return nil
	})
	span.End()
	spanT := obs.Start(obs.PhaseOTTranspose)
	if cap(s.rows) < cols*8*iknpRowBytes {
		s.rows = make([]byte, cols*8*iknpRowBytes)
	}
	rows := transposeColumnsInto(s.rows[:cols*8*iknpRowBytes], q, m)
	spanT.End()
	keys := make([]byte, 2*m*treeKeyLen)
	k0, k1 := keys[:m*treeKeyLen], keys[m*treeKeyLen:]
	spanP := obs.Start(obs.PhaseOTPad)
	_ = parallel.For(m, func(j int) error {
		rowQ := (*[iknpRowBytes]byte)(rows[j*iknpRowBytes:])
		rowQS := *rowQ
		for i := range rowQS {
			rowQS[i] ^= s.s[i]
		}
		key0 := k0[j*treeKeyLen : (j+1)*treeKeyLen]
		key1 := k1[j*treeKeyLen : (j+1)*treeKeyLen]
		rowKey(key0, j, rowQ)
		rowKey(key1, j, &rowQS)
		if freshTrace != nil {
			freshTrace(key0)
			freshTrace(key1)
		}
		return nil
	})
	spanP.End()
	return k0, k1, nil
}

// Keys derives the receiver's key of every transfer in the batch,
// K(r_j)_j = H(j, t_j), transfer j's at [16j, 16j+16).
func (e *IKNPExtension) Keys() []byte {
	spanT := obs.Start(obs.PhaseOTTranspose)
	rows := transposeColumns(e.t, e.m)
	spanT.End()
	keys := make([]byte, e.m*treeKeyLen)
	spanP := obs.Start(obs.PhaseOTPad)
	_ = parallel.For(e.m, func(j int) error {
		rowKey(keys[j*treeKeyLen:(j+1)*treeKeyLen], j, (*[iknpRowBytes]byte)(rows[j*iknpRowBytes:]))
		return nil
	})
	spanP.End()
	return keys
}

// prgInto expands a column seed into pseudorandom bytes: AES-128 (the
// seed is the key, the cipher is built once per session) in counter mode
// over a block domain-separated by column index and batch number.
// The counter and keystream blocks live in a pooled mmoScratch: blk is an
// interface, so stack blocks handed to Encrypt would escape, two heap
// allocations per column and batch.
func prgInto(blk cipher.Block, column int, batch uint32, dst []byte) {
	s := mmoPool.Get().(*mmoScratch)
	ctr, ks := &s.x, &s.y
	*ctr = [aes.BlockSize]byte{}
	binary.BigEndian.PutUint32(ctr[0:4], uint32(column))
	binary.BigEndian.PutUint32(ctr[4:8], batch)
	off := 0
	for counter := uint32(0); off < len(dst); counter++ {
		binary.BigEndian.PutUint32(ctr[8:12], counter)
		if len(dst)-off >= aes.BlockSize {
			blk.Encrypt(dst[off:off+aes.BlockSize], ctr[:])
			off += aes.BlockSize
		} else {
			blk.Encrypt(ks[:], ctr[:])
			off += copy(dst[off:], ks[:])
		}
	}
	mmoPool.Put(s)
}

// transposeColumns turns κ packed bit-columns (column i, bit j = transfer
// j) into packed bit-rows (row j, bit i), 16 bytes per row in one flat
// slice.
func transposeColumns(cols [][]byte, m int) []byte {
	rowBytes := (m + 7) / 8
	return transposeColumnsInto(make([]byte, rowBytes*8*iknpRowBytes), cols, m)
}

// transposeColumnsInto is transposeColumns writing into caller-owned
// scratch (len(out) must be ((m+7)/8)·8·iknpRowBytes). The bulk path is
// widened: 8 columns × 8 bytes are loaded as uint64 words, transposed at
// the byte level with three rounds of block swaps, and only then run
// through the classic 8×8 single-word bit transpose — ~64 rows of output
// per 8 wide loads instead of 64 single-byte column probes. A byte-at-a-
// time loop covers the sub-8-byte tail.
func transposeColumnsInto(out []byte, cols [][]byte, m int) []byte {
	rowBytes := (m + 7) / 8
	wide := rowBytes &^ 7
	for ci := 0; ci < iknpRowBytes; ci++ {
		c0, c1, c2, c3 := cols[ci*8], cols[ci*8+1], cols[ci*8+2], cols[ci*8+3]
		c4, c5, c6, c7 := cols[ci*8+4], cols[ci*8+5], cols[ci*8+6], cols[ci*8+7]
		for bj := 0; bj < wide; bj += 8 {
			w0 := binary.LittleEndian.Uint64(c0[bj:])
			w1 := binary.LittleEndian.Uint64(c1[bj:])
			w2 := binary.LittleEndian.Uint64(c2[bj:])
			w3 := binary.LittleEndian.Uint64(c3[bj:])
			w4 := binary.LittleEndian.Uint64(c4[bj:])
			w5 := binary.LittleEndian.Uint64(c5[bj:])
			w6 := binary.LittleEndian.Uint64(c6[bj:])
			w7 := binary.LittleEndian.Uint64(c7[bj:])
			// Byte-level 8×8 transpose across the words: after the three
			// rounds, word b holds byte b of every original column.
			w0, w4 = w0&0x00000000FFFFFFFF|w4<<32, w0>>32|w4&0xFFFFFFFF00000000
			w1, w5 = w1&0x00000000FFFFFFFF|w5<<32, w1>>32|w5&0xFFFFFFFF00000000
			w2, w6 = w2&0x00000000FFFFFFFF|w6<<32, w2>>32|w6&0xFFFFFFFF00000000
			w3, w7 = w3&0x00000000FFFFFFFF|w7<<32, w3>>32|w7&0xFFFFFFFF00000000
			const m2 = 0x0000FFFF0000FFFF
			w0, w2 = w0&m2|(w2&m2)<<16, (w0>>16)&m2|w2&^m2
			w1, w3 = w1&m2|(w3&m2)<<16, (w1>>16)&m2|w3&^m2
			w4, w6 = w4&m2|(w6&m2)<<16, (w4>>16)&m2|w6&^m2
			w5, w7 = w5&m2|(w7&m2)<<16, (w5>>16)&m2|w7&^m2
			const m1 = 0x00FF00FF00FF00FF
			w0, w1 = w0&m1|(w1&m1)<<8, (w0>>8)&m1|w1&^m1
			w2, w3 = w2&m1|(w3&m1)<<8, (w2>>8)&m1|w3&^m1
			w4, w5 = w4&m1|(w5&m1)<<8, (w4>>8)&m1|w5&^m1
			w6, w7 = w6&m1|(w7&m1)<<8, (w6>>8)&m1|w7&^m1
			for b, x := range [8]uint64{w0, w1, w2, w3, w4, w5, w6, w7} {
				x = transpose8x8(x)
				base := (bj + b) * 8 * iknpRowBytes
				out[base+ci] = byte(x)
				out[base+iknpRowBytes+ci] = byte(x >> 8)
				out[base+2*iknpRowBytes+ci] = byte(x >> 16)
				out[base+3*iknpRowBytes+ci] = byte(x >> 24)
				out[base+4*iknpRowBytes+ci] = byte(x >> 32)
				out[base+5*iknpRowBytes+ci] = byte(x >> 40)
				out[base+6*iknpRowBytes+ci] = byte(x >> 48)
				out[base+7*iknpRowBytes+ci] = byte(x >> 56)
			}
		}
		for bj := wide; bj < rowBytes; bj++ {
			x := uint64(c0[bj]) | uint64(c1[bj])<<8 | uint64(c2[bj])<<16 | uint64(c3[bj])<<24 |
				uint64(c4[bj])<<32 | uint64(c5[bj])<<40 | uint64(c6[bj])<<48 | uint64(c7[bj])<<56
			x = transpose8x8(x)
			base := bj * 8 * iknpRowBytes
			out[base+ci] = byte(x)
			out[base+iknpRowBytes+ci] = byte(x >> 8)
			out[base+2*iknpRowBytes+ci] = byte(x >> 16)
			out[base+3*iknpRowBytes+ci] = byte(x >> 24)
			out[base+4*iknpRowBytes+ci] = byte(x >> 32)
			out[base+5*iknpRowBytes+ci] = byte(x >> 40)
			out[base+6*iknpRowBytes+ci] = byte(x >> 48)
			out[base+7*iknpRowBytes+ci] = byte(x >> 56)
		}
	}
	return out
}

// transpose8x8 transposes a uint64 viewed as an 8×8 bit matrix (byte k,
// bit r) ↦ (byte r, bit k) — the recursive block-swap trick.
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x = x ^ t ^ (t << 28)
	return x
}

func getBit(b []byte, i int) int {
	return int(b[i/8]>>(uint(i)%8)) & 1
}

func setBit(b []byte, i int) {
	b[i/8] |= 1 << (uint(i) % 8)
}
