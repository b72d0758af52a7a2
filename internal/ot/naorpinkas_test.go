package ot

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/obs"
)

// TestBaseBatchKDFInputsFresh checks the slot binding of the batched base
// phase: the κ transfers share one r and one constraint, so the extension
// receiver must still feed its KDF 2κ distinct (slot, key) inputs. It also
// does so when the extension sender sends one PK_0 for two transfers: the
// keys of those transfers are then the same points, and only the slot
// tells their pads apart.
func TestBaseBatchKDFInputsFresh(t *testing.T) {
	g := X25519()
	for _, repeat := range []bool{false, true} {
		recv, setup, err := NewIKNPReceiverBase(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		_, choice, err := NewIKNPSenderBase(g, setup, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if repeat {
			choice.PK0s[1] = choice.PK0s[0]
		}
		checkKDFInputsFresh(t, fmt.Sprintf("%s repeat=%v", g.Name(), repeat), iknpKappa, 2, repeat, func() error {
			_, err := recv.BaseRespond(choice, rand.Reader)
			return err
		})
	}
}

// TestKofNKDFInputsFresh is the same check for the k-of-n: its k
// instances share one r and one set of constraints, so the sender must
// still feed its KDF k·n distinct (slot, key) inputs, with and without a
// PK_0 sent for two instances.
func TestKofNKDFInputsFresh(t *testing.T) {
	g := X25519()
	for _, shape := range []struct{ k, n int }{{3, 6}, {9, 18}} {
		for _, repeat := range []bool{false, true} {
			k, n := shape.k, shape.n
			msgs := make([][]byte, n)
			for j := range msgs {
				msgs[j] = []byte{byte(j)}
			}
			indices := make([]int, k)
			for i := range indices {
				indices[i] = 2 * i
			}
			sender, setup, err := NewBatchSender(g, msgs, k, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			_, choice, err := NewBatchReceiver(g, n, indices, setup, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if repeat {
				choice.PK0s[1] = choice.PK0s[0]
			}
			checkKDFInputsFresh(t, fmt.Sprintf("%s %dof%d repeat=%v", g.Name(), k, n, repeat), k, n, repeat, func() error {
				_, err := sender.Respond(choice, rand.Reader)
				return err
			})
		}
	}
}

// checkKDFInputsFresh runs respond, one batch of m instances over n
// messages, under the kdfTrace tap. It wants m·n KDF calls on m·n
// distinct (slot, key) inputs, and m·n distinct keys, or m·n − n when
// instances 0 and 1 were given the same PK_0.
func checkKDFInputsFresh(t *testing.T, name string, m, n int, repeat bool, respond func() error) {
	t.Helper()
	type kdfInput struct {
		slot int
		key  string
	}
	calls, inputs, keys := 0, map[kdfInput]bool{}, map[string]bool{}
	kdfTrace = func(slot int, elem *big.Int) {
		calls++
		inputs[kdfInput{slot, elem.String()}] = true
		keys[elem.String()] = true
	}
	err := respond()
	kdfTrace = nil
	if err != nil {
		t.Fatal(err)
	}
	if calls != m*n || len(inputs) != m*n {
		t.Errorf("%s: %d distinct KDF inputs in %d calls, want %d of each", name, len(inputs), calls, m*n)
	}
	wantKeys := m * n
	if repeat {
		wantKeys -= n
	}
	if len(keys) != wantKeys {
		t.Errorf("%s: %d distinct keys, want %d", name, len(keys), wantKeys)
	}
}

// TestBasePhaseObs pins what the base phase records: κ Naor–Pinkas
// instances and n + 3k = 2 + 3κ group exponentiations, and none of the
// spans of the public k-of-n entry points it shares its batch code with.
func TestBasePhaseObs(t *testing.T) {
	g := X25519()
	reg := obs.NewRegistry()
	prev := obs.SwapDefault(reg)
	_, _, err := NewIKNP(g, rand.Reader)
	obs.SwapDefault(prev)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.CtrOTInstances); got != iknpKappa {
		t.Errorf("%s: %s = %d, want %d", g.Name(), obs.CtrOTInstances, got, iknpKappa)
	}
	if got, want := reg.Counter(obs.CtrGroupExp), int64(2+3*iknpKappa); got != want {
		t.Errorf("%s: %s = %d, want %d", g.Name(), obs.CtrGroupExp, got, want)
	}
	hists := reg.Snapshot().Histograms
	for _, phase := range []string{obs.PhaseOTSenderSetup, obs.PhaseOTSenderRespond, obs.PhaseOTReceiverChoice, obs.PhaseOTReceiverRecover} {
		if h, ok := hists[phase]; ok && h.Count != 0 {
			t.Errorf("%s: base phase recorded %d %s spans", g.Name(), h.Count, phase)
		}
	}
}
