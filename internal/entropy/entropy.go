// Package entropy amortizes operating-system entropy reads. The
// protocols draw randomness a few dozen bytes at a time (field elements,
// OT seeds, subset indices), and a batched classification session goes
// through megabytes of it — masking polynomials, cover polynomials, and
// decoy components for every sample. Reading all of that straight from
// the kernel costs real CPU: getrandom generates per byte, and the
// syscall showed up at ~8% of the serving profile even behind a 64 KiB
// read buffer. Expanding a single OS seed with a userspace AES-CTR
// generator removes that cost while keeping every draw unpredictable.
package entropy

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"io"
)

// ctrReader streams an AES-256-CTR keystream: the standard CTR-DRBG
// construction minus reseeding, which a connection-lifetime generator
// does not need (2^64 blocks is unreachable before the session ends).
// Forward secrecy across connections comes from seeding each reader
// fresh; draws are as unpredictable as the 48-byte OS seed.
//
// Small reads are served from a page of keystream: protocol draws are
// 32–64 bytes, and feeding those straight to XORKeyStream lands on the
// unpipelined single-block AES path, which benchmarked no faster than
// the kernel generator it replaces. A read that still wants a page or
// more once the page is drained (cover and decoy draws run to tens of
// kilobytes) takes the keystream straight into the caller's slice
// instead of through the page. Either way the bytes served are the one
// keystream, in order.
type ctrReader struct {
	stream cipher.Stream
	buf    [4096]byte
	off    int // buf[off:] is unserved keystream
}

func newCTRReader(key, iv []byte) (*ctrReader, error) {
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	c := &ctrReader{stream: cipher.NewCTR(blk, iv)}
	c.off = len(c.buf)
	return c, nil
}

func (c *ctrReader) Read(p []byte) (int, error) {
	total := len(p)
	m := copy(p, c.buf[c.off:])
	c.off += m
	p = p[m:]
	// XORKeyStream over zeroed bytes yields the raw keystream.
	if len(p) >= len(c.buf) {
		clear(p)
		c.stream.XORKeyStream(p, p)
	} else if len(p) > 0 {
		clear(c.buf[:])
		c.stream.XORKeyStream(c.buf[:], c.buf[:])
		c.off = copy(p, c.buf[:])
	}
	return total, nil
}

// Buffered wraps the process entropy source in a fast userspace
// expander: one 48-byte getrandom seed (key + IV), then AES-CTR output
// for the life of the connection. Only the exact crypto/rand.Reader is
// wrapped: any other reader is returned unchanged, because deterministic
// test streams must not have their byte sequences altered and callers
// may rely on their own reader's concurrency guarantees. If seeding
// fails (no OS entropy at all), the raw reader is returned and the
// protocols surface the read error where they always did.
//
// The returned reader is NOT safe for concurrent use — give each
// connection or protocol endpoint its own, never a shared one.
func Buffered(rng io.Reader) io.Reader {
	if rng != rand.Reader {
		return rng
	}
	var seed [48]byte
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		return rng
	}
	c, err := newCTRReader(seed[:32], seed[32:])
	if err != nil {
		return rng // unreachable: 32-byte key
	}
	return c
}
