package ot_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/ot"
)

// BenchmarkDirect1ofN prices the direct Naor–Pinkas 1-of-n construction
// (n+3 exponentiations, TransferKofN with one index) across message
// counts.

func benchMessages(b *testing.B, n int) [][]byte {
	b.Helper()
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, 32)
		if _, err := rand.Read(msgs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return msgs
}

func BenchmarkDirect1ofN(b *testing.B) {
	g := ot.X25519()
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			msgs := benchMessages(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ot.TransferKofN(g, msgs, []int{i % n}, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKofN prices a whole k-of-n Naor–Pinkas transfer (both roles, in
// memory). 3of6 is the similarity protocol's dot-product round, 9of18 its
// area round — the shape `ot.kofn_area_ms` of the repository benchmark
// times; `make bench-smoke` runs both once. exps/op is the transfer's
// `ot.group_exp` count, n + 3k.
func BenchmarkKofN(b *testing.B) {
	g := ot.X25519()
	for _, shape := range []struct{ k, n int }{{3, 6}, {9, 18}} {
		b.Run(fmt.Sprintf("%dof%d", shape.k, shape.n), func(b *testing.B) {
			msgs := benchMessages(b, shape.n)
			indices := make([]int, shape.k)
			for i := range indices {
				indices[i] = 2 * i
			}
			reg := obs.NewRegistry()
			defer obs.SwapDefault(obs.SwapDefault(reg))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ot.TransferKofN(g, msgs, indices, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shape.k)*float64(b.N)/b.Elapsed().Seconds(), "transfers/s")
			b.ReportMetric(float64(reg.Counter(obs.CtrGroupExp))/float64(b.N), "exps/op")
		})
	}
}

// BenchmarkKofNParallel prices a wide batch (k=16 of n=64). It runs
// serially: one batch shares its constraints and r, and its instances are
// not fanned out, so -cpu should not move it.
func BenchmarkKofNParallel(b *testing.B) {
	g := ot.X25519()
	msgs := benchMessages(b, 64)
	indices := make([]int, 16)
	for i := range indices {
		indices[i] = i * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ot.TransferKofN(g, msgs, indices, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(indices))*float64(b.N)/b.Elapsed().Seconds(), "transfers/s")
}

// BenchmarkIKNPBatch1of2 vs BenchmarkDirectBatch1of2: the amortization
// argument for OT extension. The base phase (κ=128 public-key OTs) is
// setup cost paid once per session; each extended batch of random 1-of-2
// transfers is pure symmetric crypto.
func BenchmarkIKNPBatch1of2(b *testing.B) {
	g := ot.X25519()
	sender, receiver, err := ot.NewIKNP(g, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	const m = 1024
	choices := make([]int, m)
	for j := range choices {
		choices[j] = j % 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, msg, err := receiver.Extend(choices)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sender.Keys(msg); err != nil {
			b.Fatal(err)
		}
		ext.Keys()
	}
}

func BenchmarkDirectBatch1of2(b *testing.B) {
	g := ot.X25519()
	msgs := [][]byte{make([]byte, 32), make([]byte, 32)}
	const m = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < m; j++ {
			if _, err := ot.TransferKofN(g, msgs, []int{j % 2}, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	}
}
