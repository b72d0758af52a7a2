package entropy

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"testing"
)

// TestCTRReaderMatchesKeystream reads mixed sizes that cross page
// boundaries — served from the page, straight into the caller's slice,
// and both within one read — and wants exactly the bytes of one
// XORKeyStream over zeros under the same key and IV.
func TestCTRReaderMatchesKeystream(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 32)
	iv := bytes.Repeat([]byte{0xc3}, aes.BlockSize)
	sizes := []int{1, 31, 4095, 4096, 4097, 40000, 1, 4096, 7, 40000, 31}
	c, err := newCTRReader(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, n := range sizes {
		p := bytes.Repeat([]byte{0xff}, n) // Read must overwrite, not XOR into, p
		if m, err := c.Read(p); m != n || err != nil {
			t.Fatalf("Read(%d) = %d, %v", n, m, err)
		}
		got = append(got, p...)
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got))
	cipher.NewCTR(blk, iv).XORKeyStream(want, want)
	if !bytes.Equal(got, want) {
		t.Fatal("reads differ from the keystream")
	}
}

// TestCTRReaderReadAllocs: serving a read, from the page or straight
// into the caller's slice, allocates nothing.
func TestCTRReaderReadAllocs(t *testing.T) {
	c, err := newCTRReader(make([]byte, 32), make([]byte, aes.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 31, 4097, 40000} {
		p := make([]byte, n)
		if allocs := testing.AllocsPerRun(20, func() { _, _ = c.Read(p) }); allocs != 0 {
			t.Errorf("Read(%d): %v allocations, want 0", n, allocs)
		}
	}
}
