package ot

import (
	"runtime/debug"
	"testing"

	"repro/internal/wire"
)

// allocRuns is the number of measured runs per step.
const allocRuns = 4

// TestOTAllocs pins the heap allocations of each Naor–Pinkas step, the
// κ = 128 IKNP base phase and a 9-of-18 k-of-n (the similarity area
// round's shape), of both ends of a batch of 64 extended 3-of-6
// transfers, a fixed handful whatever B is, and of decoding each batch
// message, at exactly the counts this code makes: a step that starts
// allocating more fails here instead of in a profile, and one that
// allocates less is re-pinned. Every scalar is one 64-byte read, so no
// count depends on the values the rng stream happens to draw; the
// two-stream case checks that for the step that draws the most scalars.
func TestOTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	// A collection empties math/big's sync.Pool of scratch naturals, and
	// its timing would move the counts of the steps that divide.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := X25519()
	rng := newDetReader("alloc")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// The base phase's steps are one-shot, so each run takes the next of
	// allocRuns+1 prepared states (AllocsPerRun adds one warm-up run).
	type base struct {
		recv   *IKNPReceiver
		setup  *BatchSetup
		send   *IKNPSender
		choice *BatchChoice
		tr     *BatchTransfer
	}
	bases := make([]base, allocRuns+1)
	for i := range bases {
		b := &bases[i]
		var err error
		b.recv, b.setup, err = NewIKNPReceiverBase(g, rng)
		must(err)
		b.send, b.choice, err = NewIKNPSenderBase(g, b.setup, rng)
		must(err)
	}
	next := 0
	step := func(f func(b *base) error) func() {
		next = 0
		return func() {
			must(f(&bases[next]))
			next++
		}
	}

	const k, n = 9, 18
	msgs := make([][]byte, n)
	for j := range msgs {
		msgs[j] = make([]byte, 32)
		msgs[j][0] = byte(j)
	}
	indices := []int{17, 0, 3, 8, 5, 12, 9, 14, 1}
	sender, setup, err := NewBatchSender(g, msgs, k, rng)
	must(err)
	receiver, choice, err := NewBatchReceiver(g, n, len(msgs[0]), indices, setup, rng)
	must(err)
	tr, err := sender.Respond(choice, rng)
	must(err)
	// decode measures decoding m's encoding into a fresh message of its type.
	decode := func(m func() wire.Msg, fresh func() wire.Msg) func() func() {
		return func() func() {
			data, err := wire.Marshal(m())
			must(err)
			return func() { must(wire.Unmarshal(data, fresh())) }
		}
	}
	fresh := map[string]func() wire.Msg{
		"setup":    func() wire.Msg { return new(BatchSetup) },
		"choice":   func() wire.Msg { return new(BatchChoice) },
		"transfer": func() wire.Msg { return new(BatchTransfer) },
	}
	now := func(f func()) func() func() { return func() func() { return f } }

	// A stream_narrow-shaped extended batch: 64 samples of a 3-of-6 over
	// 32-byte messages. The sender answers the same request each run, its
	// batch counter moving on; the receiver recovers one response.
	extRng := newDetReader("alloc-ext")
	iknpS, iknpR, err := NewIKNP(g, extRng)
	must(err)
	const extK, extN, extB = 3, 6, 64
	extMsgs := make([][][]byte, extB)
	extIdx := make([][]int, extB)
	for b := range extMsgs {
		extMsgs[b] = make([][]byte, extN)
		for j := range extMsgs[b] {
			extMsgs[b][j] = make([]byte, 32)
		}
		extIdx[b] = []int{b % extN, (b + 1) % extN, (b + 3) % extN}
	}
	extQuery, extReq, err := NewExtKofNBatchQuery(iknpR, extN, extIdx)
	must(err)
	extResp, err := ExtKofNBatchRespond(iknpS, extReq, extMsgs, extRng)
	must(err)

	for _, tc := range []struct {
		name    string
		want    float64
		prepare func() func() // returns the measured step
	}{
		{"NewIKNPReceiverBase", 12, now(func() {
			_, _, err := NewIKNPReceiverBase(g, rng)
			must(err)
		})},
		{"NewIKNPSenderBase", 651, func() func() {
			return step(func(b *base) error { _, _, err := NewIKNPSenderBase(g, b.setup, rng); return err })
		}},
		// BaseRespond fills each state's transfer for BaseFinish.
		{"BaseRespond", 661, func() func() {
			return step(func(b *base) (err error) { b.tr, err = b.recv.BaseRespond(b.choice, rng); return err })
		}},
		{"BaseFinish", 265, func() func() {
			return step(func(b *base) error { return b.send.BaseFinish(b.tr) })
		}},
		{"NewBatchSender/9of18", 110, now(func() {
			_, _, err := NewBatchSender(g, msgs, k, rng)
			must(err)
		})},
		{"NewBatchReceiver/9of18", 55, now(func() {
			_, _, err := NewBatchReceiver(g, n, len(msgs[0]), indices, setup, rng)
			must(err)
		})},
		{"Respond/9of18", 253, now(func() {
			_, err := sender.Respond(choice, rng)
			must(err)
		})},
		{"Recover/9of18", 20, now(func() {
			_, err := receiver.Recover(tr)
			must(err)
		})},
		// The freshness tap is off: it adds nothing to either count.
		{"ExtKofNBatchRespond/3of6/B=64", 8, now(func() {
			_, err := ExtKofNBatchRespond(iknpS, extReq, extMsgs, extRng)
			must(err)
		})},
		{"ExtKofNBatchQuery.Recover/3of6/B=64", 7, now(func() {
			_, err := extQuery.Recover(extResp)
			must(err)
		})},
		{"decode BatchSetup/base", 3, decode(func() wire.Msg { return bases[0].setup }, fresh["setup"])},
		{"decode BatchChoice/base", 3, decode(func() wire.Msg { return bases[0].choice }, fresh["choice"])},
		{"decode BatchTransfer/base", 3, decode(func() wire.Msg { return bases[0].tr }, fresh["transfer"])},
		{"decode BatchSetup/9of18", 3, decode(func() wire.Msg { return setup }, fresh["setup"])},
		{"decode BatchChoice/9of18", 3, decode(func() wire.Msg { return choice }, fresh["choice"])},
		{"decode BatchTransfer/9of18", 4, decode(func() wire.Msg { return tr }, fresh["transfer"])},
	} {
		if got := testing.AllocsPerRun(allocRuns, tc.prepare()); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}

	// The base choice draws κ scalars: under two unrelated streams it
	// makes the same allocations.
	counts := make([]float64, 2)
	for i, seed := range []string{"alloc-stream-a", "alloc-stream-b"} {
		streamRng := newDetReader(seed)
		_, setup, err := NewIKNPReceiverBase(g, streamRng)
		must(err)
		counts[i] = testing.AllocsPerRun(allocRuns, func() {
			_, _, err := NewIKNPSenderBase(g, setup, streamRng)
			must(err)
		})
	}
	if counts[0] != counts[1] {
		t.Errorf("NewIKNPSenderBase: %.0f allocations under one stream, %.0f under another", counts[0], counts[1])
	}
}
