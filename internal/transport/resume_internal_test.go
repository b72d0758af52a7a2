package transport

// Ticketer unit tests: the mint/validate lifecycle against the clock
// seam — expiry, tampering, replay, foreign mints, and contract drift.
// End-to-end negotiation coverage lives in resume_test.go; these tests
// pin the validation order and the single-use ledger directly.

import (
	"bytes"
	"crypto/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ot"
)

func testSenderState(batch uint32) *ot.IKNPSenderState {
	st := &ot.IKNPSenderState{
		S:     make([]byte, 16),
		Seeds: make([]byte, 128*16),
		Batch: batch,
	}
	for i := range st.S {
		st.S[i] = byte(i * 7)
	}
	for i := range st.Seeds {
		st.Seeds[i] = byte(i)
	}
	return st
}

func mustTicketer(t *testing.T, ttl time.Duration) *ticketer {
	t.Helper()
	tk, err := newTicketer(rand.Reader, ttl)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestTicketMintValidateRoundTrip(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	sum := bytes.Repeat([]byte{0xAB}, 32)
	want := testSenderState(42)
	ticket, err := tk.mint(rand.Reader, "classify-fast", sum, want)
	if err != nil {
		t.Fatal(err)
	}
	mintID, ok := TicketMintID(ticket)
	if !ok || !bytes.Equal(mintID, tk.mintID[:]) {
		t.Fatalf("TicketMintID = %x, %v; want %x, true", mintID, ok, tk.mintID)
	}
	got, err := tk.validate(ticket, "classify-fast", sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.S, want.S) || !bytes.Equal(got.Seeds, want.Seeds) || got.Batch != want.Batch {
		t.Fatal("validated state differs from minted state")
	}
}

func TestTicketSingleUse(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	sum := make([]byte, 32)
	ticket, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.validate(ticket, "classify-fast", sum); err != nil {
		t.Fatalf("first redemption: %v", err)
	}
	if _, err := tk.validate(ticket, "classify-fast", sum); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Fatalf("replay error = %v, want replay rejection", err)
	}
}

func TestTicketExpiry(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	base := time.Now()
	tk.now = func() time.Time { return base }
	sum := make([]byte, 32)
	ticket, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(1))
	if err != nil {
		t.Fatal(err)
	}
	tk.now = func() time.Time { return base.Add(time.Minute + time.Nanosecond) }
	if _, err := tk.validate(ticket, "classify-fast", sum); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("expired ticket error = %v, want expiry rejection", err)
	}
}

// TestTicketUsedLedgerSweeps: redeemed IDs are forgotten once their
// expiry passes, so a long-lived server's replay map cannot grow without
// bound.
func TestTicketUsedLedgerSweeps(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	base := time.Now()
	tk.now = func() time.Time { return base }
	sum := make([]byte, 32)
	old, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.validate(old, "classify-fast", sum); err != nil {
		t.Fatal(err)
	}
	if len(tk.used) != 1 {
		t.Fatalf("used ledger has %d entries, want 1", len(tk.used))
	}
	// Past the old ticket's expiry, validating a fresh one sweeps it out.
	tk.now = func() time.Time { return base.Add(2 * time.Minute) }
	fresh, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.validate(fresh, "classify-fast", sum); err != nil {
		t.Fatal(err)
	}
	if len(tk.used) != 1 {
		t.Fatalf("used ledger has %d entries after sweep, want 1", len(tk.used))
	}
}

// TestTicketLedgerSweepsOncePerPeriod: validate walks the replay ledger
// at most once per ledgerSweepPeriod, so an expired ID outlives a fresh
// validation inside the period; it is still refused as expired, a replay
// still reads "replayed", and the ledger shrinks once TTL plus the period
// has passed.
func TestTicketLedgerSweepsOncePerPeriod(t *testing.T) {
	const ttl = time.Second
	tk := mustTicketer(t, ttl)
	base := time.Now()
	sum := make([]byte, 32)
	redeem := func(at time.Time) []byte {
		t.Helper()
		tk.now = func() time.Time { return at }
		ticket, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.validate(ticket, "classify-fast", sum); err != nil {
			t.Fatal(err)
		}
		return ticket
	}
	first := redeem(base)
	// Past the first ticket's expiry but inside the period: no sweep.
	later := base.Add(2 * ttl)
	fresh := redeem(later)
	if len(tk.used) != 2 {
		t.Fatalf("used ledger has %d entries inside the sweep period, want 2", len(tk.used))
	}
	if _, err := tk.validate(fresh, "classify-fast", sum); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Fatalf("replay error = %v, want replay rejection", err)
	}
	if _, err := tk.validate(first, "classify-fast", sum); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("unswept expired ticket error = %v, want expiry rejection", err)
	}
	redeem(base.Add(ttl + ledgerSweepPeriod + 2*ttl))
	if len(tk.used) != 1 {
		t.Fatalf("used ledger has %d entries after TTL plus the period, want 1", len(tk.used))
	}
}

func TestTicketTampering(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	sum := make([]byte, 32)
	ticket, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(9))
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any byte — magic, mint ID, nonce, or sealed payload — must
	// reject; the header is AEAD additional data, so even the cleartext
	// prefix is integrity-bound.
	for i := 0; i < len(ticket); i++ {
		bad := append([]byte(nil), ticket...)
		bad[i] ^= 0x01
		if _, err := tk.validate(bad, "classify-fast", sum); err == nil {
			t.Fatalf("ticket with byte %d flipped validated", i)
		}
	}
	if _, err := tk.validate(ticket[:len(ticket)-1], "classify-fast", sum); err == nil {
		t.Fatal("truncated ticket validated")
	}
	// The untampered original must still be valid (tampering attempts must
	// not burn the ID).
	if _, err := tk.validate(ticket, "classify-fast", sum); err != nil {
		t.Fatalf("original after tamper attempts: %v", err)
	}
}

func TestTicketBindings(t *testing.T) {
	tk := mustTicketer(t, time.Minute)
	sum := bytes.Repeat([]byte{1}, 32)
	ticket, err := tk.mint(rand.Reader, "classify-fast", sum, testSenderState(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.validate(ticket, "classify", sum); err == nil {
		t.Fatal("ticket for another service validated")
	}
	otherSum := bytes.Repeat([]byte{2}, 32)
	if _, err := tk.validate(ticket, "classify-fast", otherSum); err == nil {
		t.Fatal("ticket validated against a drifted contract")
	}
	// A different mint (another replica, or this one restarted) must
	// decline even a pristine ticket.
	other := mustTicketer(t, time.Minute)
	if _, err := other.validate(ticket, "classify-fast", sum); err == nil {
		t.Fatal("foreign mint validated the ticket")
	}
	// None of the failed bindings consumed the ID.
	if _, err := tk.validate(ticket, "classify-fast", sum); err != nil {
		t.Fatalf("ticket after binding failures: %v", err)
	}
}

func TestTicketMintIDRejectsGarbage(t *testing.T) {
	if _, ok := TicketMintID(nil); ok {
		t.Fatal("nil ticket yielded a mint ID")
	}
	if _, ok := TicketMintID([]byte("short")); ok {
		t.Fatal("short ticket yielded a mint ID")
	}
	if _, ok := TicketMintID([]byte("NOTMAGIC01234567")); ok {
		t.Fatal("wrong magic yielded a mint ID")
	}
}
