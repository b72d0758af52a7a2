package transport

// Session resumption tickets. A fast session's entire server-side crypto
// position after the base phase is the IKNP sender state (see
// internal/ot/resume.go); at a clean session end the server seals that
// state — together with the session's negotiated contract and an expiry —
// inside an opaque AEAD ticket and hands it to the client. A redialing
// client presents the ticket in its Hello; the server unseals it,
// re-checks the contract against the spec it would grant TODAY (so a
// hot-swapped model with another contract invalidates the ticket), and
// on success both sides skip the κ base OTs entirely.
//
// Failure philosophy: every server-side validation failure — expired,
// tampered, replayed, foreign mint, contract drift — is a silent decline
// into a full handshake, because a client holding a stale ticket did
// nothing wrong. The typed ErrResume is reserved for genuine protocol
// violations observed by the CLIENT: a server granting resumption that
// was never offered, or granting against a contract that diverges from
// the one the ticket was minted under.

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/ot"
	"repro/internal/wire"
)

// ErrResume reports a resumption protocol violation by the peer (a grant
// that was never offered, or a granted contract that diverges from the
// ticket's). Stale or declined tickets never produce it — they fall back
// to a full handshake.
var ErrResume = errors.New("transport: resumption protocol violation")

// DefaultTicketTTL bounds a resumption ticket's validity.
const DefaultTicketTTL = 10 * time.Minute

// ResumeState is everything a client must retain to resume a session: the
// server's sealed ticket, the client's own receiver-side OT snapshot, and
// the contract digest the pair was minted under. It is held in memory
// next to the connection cache (gateway.FleetClient) — the receiver state
// never crosses the wire.
type ResumeState struct {
	// Ticket is the server's opaque sealed ticket.
	Ticket []byte
	// Receiver is the client's OT-extension position at ticket time.
	Receiver *ot.IKNPReceiverState
	// SpecSum digests the negotiated contract (specResumeSum); a granted
	// spec that hashes differently means the server's contract moved and
	// the cached receiver state must not be reused.
	SpecSum []byte
	// Service is the service the state belongs to ("classify-fast").
	Service string
}

// SessionTicket delivers the sealed resumption ticket: the server answers
// a clean Done with it when the session's Hello offered resumption.
type SessionTicket struct {
	Ticket []byte
}

// ResumeInfo answers the "resume-info" service with the server process's
// minting identity, so a gateway can route ticket-bearing redials back to
// the replica that can actually unseal them.
type ResumeInfo struct {
	MintID []byte
}

// Ticket layout: a cleartext header (magic + mint ID, so gateways can
// route without the sealing key) followed by the GCM nonce and the sealed
// payload. The header doubles as the AEAD's additional data, so a spliced
// or re-headered ticket fails to open.
const (
	ticketMagic     = "PPDCTKT1"
	ticketMintIDLen = 8
	ticketHeaderLen = len(ticketMagic) + ticketMintIDLen
	ticketNonceLen  = 12
	ticketIDLen     = 16
	ticketKeyLen    = 32
)

// TicketMintID extracts the minting identity from a ticket's cleartext
// header without unsealing it (the gateway's affinity key). It reports
// false for anything that is not shaped like a ticket.
func TicketMintID(ticket []byte) ([]byte, bool) {
	if len(ticket) < ticketHeaderLen || string(ticket[:len(ticketMagic)]) != ticketMagic {
		return nil, false
	}
	return ticket[len(ticketMagic):ticketHeaderLen], true
}

// specResumeSum digests the negotiated session contract a ticket binds:
// the full spec — kernel shape, field, group — with
// the ResumeGranted negotiation outcome cleared, so the digest of a
// granted-resumption spec matches the digest its ticket was minted under.
func specResumeSum(spec classify.Spec) []byte {
	spec.ResumeGranted = false
	data, err := wire.Marshal(&spec)
	if err != nil {
		return nil
	}
	sum := sha256.Sum256(data)
	return sum[:]
}

// ticketPayload is the sealed interior of a ticket.
type ticketPayload struct {
	// ID is the single-use identity for replay suppression.
	ID []byte
	// Expiry is the validity bound (Unix nanoseconds).
	Expiry int64
	// Service and SpecSum pin the contract the state belongs to.
	Service string
	SpecSum []byte
	// Sender is the server-side OT position being amortized.
	Sender ot.IKNPSenderState
}

// EncodeWire implements the wire codec.
func (p *ticketPayload) EncodeWire(w *wire.Writer) {
	w.ByteSlice(p.ID)
	w.Uvarint(uint64(p.Expiry))
	w.String(p.Service)
	w.ByteSlice(p.SpecSum)
	p.Sender.EncodeWire(w)
}

// DecodeWire implements the wire codec.
func (p *ticketPayload) DecodeWire(r *wire.Reader) {
	p.ID = r.ByteSlice()
	p.Expiry = int64(r.Uvarint())
	p.Service = r.String()
	p.SpecSum = r.ByteSlice()
	p.Sender.DecodeWire(r)
}

// ticketer mints and validates this process's tickets. The sealing key
// and mint ID are drawn once, lazily, from the server's entropy source;
// tickets are strictly per-process — a restart (or another replica)
// cannot unseal them, which is exactly the property the gateway's
// affinity routing works around.
type ticketer struct {
	aead   cipher.AEAD
	mintID [ticketMintIDLen]byte
	ttl    time.Duration

	mu sync.Mutex
	// used records redeemed ticket IDs until their expiry passes, making
	// every ticket single-use. Expired IDs are swept lazily, by the first
	// validation at or after nextSweep (Unix ns), at most once per
	// ledgerSweepPeriod.
	used      map[[ticketIDLen]byte]int64
	nextSweep int64
	// now is the clock (a test seam for expiry coverage).
	now func() time.Time
}

// ledgerSweepPeriod bounds how often validate walks the replay ledger to
// drop expired IDs. The walk costs one step per live ID (up to
// DefaultTicketTTL times the resumption rate), so doing it on every
// resumption would hold t.mu for the whole ledger each time; an expired
// ID left in the ledger meanwhile is harmless, because validate refuses
// an expired ticket before it reads the ledger.
const ledgerSweepPeriod = time.Minute

func newTicketer(rand io.Reader, ttl time.Duration) (*ticketer, error) {
	var key [ticketKeyLen]byte
	if _, err := io.ReadFull(rand, key[:]); err != nil {
		return nil, fmt.Errorf("transport: ticket key: %w", err)
	}
	t := &ticketer{ttl: ttl, used: make(map[[ticketIDLen]byte]int64), now: time.Now}
	if _, err := io.ReadFull(rand, t.mintID[:]); err != nil {
		return nil, fmt.Errorf("transport: ticket mint id: %w", err)
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	if t.aead, err = cipher.NewGCM(blk); err != nil {
		return nil, err
	}
	return t, nil
}

// mint seals one ticket. The ticket ID and nonce come from the session's
// own rng — never a process-global source — so sessions driven by fixed
// test readers produce bit-identical wire bytes at any worker count.
func (t *ticketer) mint(rng io.Reader, service string, specSum []byte, st *ot.IKNPSenderState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("transport: mint ticket: nil sender state")
	}
	var id [ticketIDLen]byte
	if _, err := io.ReadFull(rng, id[:]); err != nil {
		return nil, err
	}
	var nonce [ticketNonceLen]byte
	if _, err := io.ReadFull(rng, nonce[:]); err != nil {
		return nil, err
	}
	payload := &ticketPayload{
		ID:      id[:],
		Expiry:  t.now().Add(t.ttl).UnixNano(),
		Service: service,
		SpecSum: specSum,
		Sender:  *st,
	}
	plain, err := wire.Marshal(payload)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, ticketHeaderLen+ticketNonceLen+len(plain)+t.aead.Overhead())
	out = append(out, ticketMagic...)
	out = append(out, t.mintID[:]...)
	out = append(out, nonce[:]...)
	return t.aead.Seal(out, nonce[:], plain, out[:ticketHeaderLen]), nil
}

// validate unseals and checks one presented ticket, consuming its ID on
// success. Every returned error means "run a full handshake", never "fail
// the session".
func (t *ticketer) validate(ticket []byte, service string, specSum []byte) (*ot.IKNPSenderState, error) {
	if len(ticket) < ticketHeaderLen+ticketNonceLen+t.aead.Overhead() {
		return nil, fmt.Errorf("transport: ticket too short")
	}
	mintID, ok := TicketMintID(ticket)
	if !ok {
		return nil, fmt.Errorf("transport: bad ticket magic")
	}
	if !bytes.Equal(mintID, t.mintID[:]) {
		return nil, fmt.Errorf("transport: ticket from a different mint")
	}
	nonce := ticket[ticketHeaderLen : ticketHeaderLen+ticketNonceLen]
	plain, err := t.aead.Open(nil, nonce, ticket[ticketHeaderLen+ticketNonceLen:], ticket[:ticketHeaderLen])
	if err != nil {
		return nil, fmt.Errorf("transport: ticket unseal: %w", err)
	}
	var payload ticketPayload
	if err := wire.Unmarshal(plain, &payload); err != nil {
		return nil, fmt.Errorf("transport: ticket payload: %w", err)
	}
	if len(payload.ID) != ticketIDLen {
		return nil, fmt.Errorf("transport: ticket id malformed")
	}
	nowNS := t.now().UnixNano()
	if payload.Expiry <= nowNS {
		return nil, fmt.Errorf("transport: ticket expired")
	}
	if payload.Service != service {
		return nil, fmt.Errorf("transport: ticket for service %q, session wants %q", payload.Service, service)
	}
	if !bytes.Equal(payload.SpecSum, specSum) {
		return nil, fmt.Errorf("transport: ticket contract diverges from current spec")
	}
	var id [ticketIDLen]byte
	copy(id[:], payload.ID)
	t.mu.Lock()
	if nowNS >= t.nextSweep {
		for old, exp := range t.used {
			if exp <= nowNS {
				delete(t.used, old)
			}
		}
		t.nextSweep = nowNS + int64(ledgerSweepPeriod)
	}
	if _, dup := t.used[id]; dup {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: ticket replayed")
	}
	t.used[id] = payload.Expiry
	t.mu.Unlock()
	st := payload.Sender
	return &st, nil
}

// EncodeWire implements the wire codec.
func (t *SessionTicket) EncodeWire(w *wire.Writer) { w.ByteSlice(t.Ticket) }

// DecodeWire implements the wire codec.
func (t *SessionTicket) DecodeWire(r *wire.Reader) { t.Ticket = r.ByteSlice() }

// EncodeWire implements the wire codec.
func (i *ResumeInfo) EncodeWire(w *wire.Writer) { w.ByteSlice(i.MintID) }

// DecodeWire implements the wire codec.
func (i *ResumeInfo) DecodeWire(r *wire.Reader) { i.MintID = r.ByteSlice() }
