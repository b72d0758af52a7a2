package ot

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// TestBaseBatchKDFInputsFresh checks the slot binding of the batched base
// phase: the κ transfers share one r and one constraint, so the extension
// receiver must still feed its KDF 2κ distinct (slot, key) inputs. It also
// does so when the extension sender sends one PK_0 for two transfers: the
// keys of those transfers are then the same points, and only the slot
// tells their pads apart.
func TestBaseBatchKDFInputsFresh(t *testing.T) {
	defer func() { kdfTrace = nil }()
	for _, g := range []Group{X25519(), Group512Test()} {
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
				choice.Choices[1] = choice.Choices[0]
			}
			type kdfInput struct {
				slot int
				key  string
			}
			var (
				mu     sync.Mutex
				calls  int
				inputs = map[kdfInput]bool{}
				keys   = map[string]bool{}
			)
			kdfTrace = func(slot int, elem *big.Int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				inputs[kdfInput{slot, elem.String()}] = true
				keys[elem.String()] = true
			}
			_, err = recv.BaseRespond(choice, rand.Reader)
			kdfTrace = nil
			if err != nil {
				t.Fatal(err)
			}
			if calls != 2*iknpKappa || len(inputs) != 2*iknpKappa {
				t.Errorf("%s repeat=%v: %d distinct KDF inputs in %d calls, want %d of each",
					g.Name(), repeat, len(inputs), calls, 2*iknpKappa)
			}
			if repeat && len(keys) != 2*iknpKappa-2 {
				t.Errorf("%s: a repeated PK_0 gave %d distinct keys, want %d", g.Name(), len(keys), 2*iknpKappa-2)
			}
		}
	}
}
