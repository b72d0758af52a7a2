package ot

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"testing"
)

// extSession runs the base phase for the extended k-of-n tests.
func extSession(t *testing.T) (*IKNPSender, *IKNPReceiver) {
	t.Helper()
	s, r, err := NewIKNP(X25519(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

// extMessages draws B samples of n random w-byte messages.
func extMessages(t *testing.T, batch, n, w int) [][][]byte {
	t.Helper()
	msgs := make([][][]byte, batch)
	for b := range msgs {
		msgs[b] = make([][]byte, n)
		for m := range msgs[b] {
			msgs[b][m] = make([]byte, w)
			if _, err := rand.Read(msgs[b][m]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return msgs
}

// extIndices draws B random k-subsets of n, in random order.
func extIndices(rng *mrand.Rand, batch, k, n int) [][]int {
	out := make([][]int, batch)
	for b := range out {
		out[b] = rng.Perm(n)[:k]
	}
	return out
}

// checkRecovered checks that every sample recovered exactly its chosen
// messages, in index order.
func checkRecovered(t *testing.T, name string, got [][][]byte, msgs [][][]byte, indices [][]int) {
	t.Helper()
	if len(got) != len(indices) {
		t.Fatalf("%s: %d samples recovered, want %d", name, len(got), len(indices))
	}
	for b, idx := range indices {
		if len(got[b]) != len(idx) {
			t.Fatalf("%s: sample %d recovered %d messages, want %d", name, b, len(got[b]), len(idx))
		}
		for i, m := range idx {
			if !bytes.Equal(got[b][i], msgs[b][m]) {
				t.Fatalf("%s: sample %d instance %d: not message %d", name, b, i, m)
			}
		}
	}
}

// TestExtKofNPrivacyRandomShapes: over random k-of-n shapes, n mostly
// not a power of two, random batch sizes and message widths, Recover
// returns exactly the chosen messages.
func TestExtKofNPrivacyRandomShapes(t *testing.T) {
	sender, receiver := extSession(t)
	rng := mrand.New(mrand.NewPCG(52, 1))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(39)
		k := 1 + rng.IntN(n)
		batch := 1 + rng.IntN(9)
		w := []int{1, 16, 17, 32, 66}[rng.IntN(5)]
		name := fmt.Sprintf("%d-of-%d B=%d w=%d", k, n, batch, w)
		msgs := extMessages(t, batch, n, w)
		indices := extIndices(rng, batch, k, n)
		q, req, err := NewExtKofNBatchQuery(receiver, n, indices)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := ExtKofNBatchRespond(sender, req, msgs, rand.Reader)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := batch * ((k-1)*n*treeKeyLen + n*w); len(resp.Cts) != want {
			t.Fatalf("%s: response blob of %d bytes, want B·((k−1)·n·16 + n·w) = %d", name, len(resp.Cts), want)
		}
		got, err := q.Recover(resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecovered(t, name, got, msgs, indices)
	}
}

// TestExtKofNPrivacyPathKeys: the receiver's own path keys open no index
// but the one each path was chosen for. For every sample and instance,
// the path's digest is tried as a message key K_m on every message, as
// instance 0's digests are, and on every index's tree ciphertext, under
// the tree pad of that index and of its own, with the key that falls out
// tried on the index's message: only instance 0's digest on its chosen
// index and instance i ≥ 1's on its own chosen ciphertext yield a
// message. So a receiver holding every chosen path opens exactly its k
// messages per sample.
func TestExtKofNPrivacyPathKeys(t *testing.T) {
	sender, receiver := extSession(t)
	rng := mrand.New(mrand.NewPCG(52, 2))
	for _, shape := range []struct{ k, n, batch int }{{3, 6, 2}, {2, 11, 3}, {7, 14, 1}, {1, 2, 4}} {
		k, n, batch := shape.k, shape.n, shape.batch
		const w = 32
		msgs := extMessages(t, batch, n, w)
		indices := extIndices(rng, batch, k, n)
		q, req, err := NewExtKofNBatchQuery(receiver, n, indices)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ExtKofNBatchRespond(sender, req, msgs, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys := q.ext.Keys()
		depth := treeDepth(n)
		s := new(mmoScratch)
		treeBytes := (k - 1) * n * treeKeyLen
		block := treeBytes + n*w
		for b, idx := range indices {
			sample := resp.Cts[b*block : (b+1)*block]
			opens := func(key *[treeKeyLen]byte, m int) bool {
				got := make([]byte, w)
				s.xorPad(got, sample[treeBytes+m*w:treeBytes+(m+1)*w], key, m, padDomainMsg)
				return bytes.Equal(got, msgs[b][m])
			}
			opened := 0
			for i, chosen := range idx {
				digest := s.pathDigest(keys[(b*k+i)*depth*treeKeyLen : (b*k+i+1)*depth*treeKeyLen])
				for m := 0; m < n; m++ {
					if opens(&digest, m) {
						opened++
						if i != 0 || m != chosen {
							t.Fatalf("%d-of-%d sample %d instance %d (chose %d) opened index %d as its key", k, n, b, i, chosen, m)
						}
					}
				}
				for j := 1; j < k; j++ {
					for m := 0; m < n; m++ {
						slot := (j-1)*n + m
						ct := sample[slot*treeKeyLen : (slot+1)*treeKeyLen]
						tweaks := []int{m}
						if chosen != m {
							tweaks = append(tweaks, chosen)
						}
						for _, tweak := range tweaks {
							var key [treeKeyLen]byte
							s.xorPad(key[:], ct, &digest, tweak, padDomainTree)
							if opens(&key, m) {
								opened++
								if j != i || m != chosen || tweak != m {
									t.Fatalf("%d-of-%d sample %d instance %d (chose %d) opened index %d of instance %d under tweak %d", k, n, b, i, chosen, m, j, tweak)
								}
							}
						}
					}
				}
			}
			if opened != k {
				t.Fatalf("%d-of-%d sample %d: the chosen paths opened %d messages, want %d", k, n, b, opened, k)
			}
		}
	}
}

// TestExtKofNPrivacyBlobLength: the receiver accepts exactly the blob
// lengths B·((k−1)·n·16 + n·w) and refuses every other length with
// ErrIKNP, before anything is sized by it: refusing a 1 MiB blob makes no
// allocation but its error's.
func TestExtKofNPrivacyBlobLength(t *testing.T) {
	sender, receiver := extSession(t)
	const batch, k, n, w = 4, 2, 6, 8
	msgs := extMessages(t, batch, n, w)
	indices := [][]int{{1, 4}, {0, 5}, {2, 3}, {5, 1}}
	q, req, err := NewExtKofNBatchQuery(receiver, n, indices)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ExtKofNBatchRespond(sender, req, msgs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	honest := len(resp.Cts)
	padded := append(append([]byte(nil), resp.Cts...), make([]byte, batch*n*3)...)
	for size := 0; size <= len(padded); size++ {
		got, err := q.Recover(&ExtKofNBatchResponse{Cts: padded[:size]})
		per := size / batch
		tree := (k - 1) * n * treeKeyLen
		fits := size%batch == 0 && per >= tree && (per-tree)%n == 0
		switch {
		case fits && err != nil:
			t.Fatalf("%d-byte blob (w = %d) refused: %v", size, (per-tree)/n, err)
		case !fits && !errors.Is(err, ErrIKNP):
			t.Fatalf("%d-byte blob: err = %v, want ErrIKNP", size, err)
		case size == honest:
			checkRecovered(t, "honest blob", got, msgs, indices)
		}
	}
	if _, err := q.Recover(nil); !errors.Is(err, ErrIKNP) {
		t.Fatalf("nil response: err = %v, want ErrIKNP", err)
	}
	checkRefusalAllocs(t, "Recover", 4, func(cts []byte) bool {
		_, err := q.Recover(&ExtKofNBatchResponse{Cts: cts})
		return errors.Is(err, ErrIKNP)
	})
}

// TestExtKofNFreshInputs drives the extended k-of-n under the freshTrace
// tap — the base phase's seed pairs, every random-OT key of both halves
// and every path digest the sender pads with, instance 0's being the
// message keys —
// through batches of 1, 4 and 64
// samples, with one and two batches in flight, then across a resume, and
// checks that no input repeats and none is skipped. A frozen batch
// counter, or a restore that rewinds it, repeats random-OT keys and
// fails here.
func TestExtKofNFreshInputs(t *testing.T) {
	tap := tapFresh(t)
	const k, n, w = 3, 6, 32
	depth := treeDepth(n)
	want := 0
	rng := mrand.New(mrand.NewPCG(52, 3))
	run := func(sender *IKNPSender, receiver *IKNPReceiver, batch, inflight int) {
		t.Helper()
		queries := make([]*ExtKofNBatchQuery, inflight)
		reqs := make([]*ExtKofNBatchRequest, inflight)
		indices := make([][][]int, inflight)
		for f := range queries {
			indices[f] = extIndices(rng, batch, k, n)
			var err error
			if queries[f], reqs[f], err = NewExtKofNBatchQuery(receiver, n, indices[f]); err != nil {
				t.Fatal(err)
			}
		}
		for f := range queries {
			msgs := extMessages(t, batch, n, w)
			resp, err := ExtKofNBatchRespond(sender, reqs[f], msgs, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			got, err := queries[f].Recover(resp)
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, fmt.Sprintf("B=%d in flight %d", batch, f), got, msgs, indices[f])
			want += batch * (2*k*depth + k*n)
		}
	}
	// The base phase's 2κ slot keys, the receiver's seed pairs, come
	// first.
	sender, receiver := extSession(t)
	want += 2 * iknpKappa
	for _, batch := range []int{1, 4, 64} {
		for inflight := 1; inflight <= 2; inflight++ {
			run(sender, receiver, batch, inflight)
		}
	}
	sst, err := sender.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := receiver.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sender, err = RestoreIKNPSender(sst); err != nil {
		t.Fatal(err)
	}
	if receiver, err = RestoreIKNPReceiver(rst); err != nil {
		t.Fatal(err)
	}
	run(sender, receiver, 4, 2)

	tap.check(t, want)
}
