package ompe

import (
	"fmt"
	mrand "math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/field"
	"repro/internal/mvpoly"
	"repro/internal/parallel/paralleltest"
)

// mallocsPerRun runs f runs times, after one warm-up run, and returns the
// mean number of heap allocations of a run. Unlike testing.AllocsPerRun
// it leaves GOMAXPROCS alone, so at four workers it counts what the
// fanned-out path allocates.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestBatchAllocs pins the session batch path's heap allocations per
// sample at B = 64, on the limb engine with a linear model at n = 8 (the
// stream_narrow shape) and n = 500 (stream_wide's width): NewBatch and
// HandleBatch together make a fixed handful per batch and per worker, at
// most 2 per sample, and Finish at most 1 per sample. Per-sample state
// comes from per-batch slabs and per-worker scratch, so neither count
// grows with n. Each fan-out makes its scratch and starts its goroutine
// once per worker, about 15 allocations per worker per batch in all, so
// the bounds hold at the worker counts they are pinned at, one and four,
// whatever GOMAXPROCS the test binary runs at.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	// A collection would run finalizers and sweep work inside the
	// measured window; nothing here depends on it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := field.Default()
	params := limbParams(t, 1)
	const B = 64
	rng := mrand.NewChaCha8([32]byte{7})
	for _, tc := range []struct{ procs, n int }{{1, 8}, {1, 500}, {4, 8}, {4, 500}} {
		procs, n := tc.procs, tc.n
		t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
			paralleltest.SetProcs(t, procs)
			w := make(field.Vec, n)
			inputs := make([]field.Vec, B)
			for i := range w {
				w[i] = f.FromInt64(int64(i%7 - 3))
			}
			for s := range inputs {
				inputs[s] = make(field.Vec, n)
				for i := range inputs[s] {
					inputs[s][i] = f.FromInt64(int64((s + i) % 11))
				}
			}
			p, err := mvpoly.NewLinear(f, w, f.FromInt64(5))
			if err != nil {
				t.Fatal(err)
			}
			sender, receiver, err := NewSession(params, p, rng)
			if err != nil {
				t.Fatal(err)
			}
			var (
				batch *SessionBatch
				resp  *FastBatchResponse
			)
			runs := 8
			if n > 100 {
				runs = 2
			}
			query := mallocsPerRun(runs, func() {
				b, req, err := receiver.NewBatch(inputs, rng)
				if err != nil {
					t.Fatal(err)
				}
				r, err := sender.HandleBatch(req, rng)
				if err != nil {
					t.Fatal(err)
				}
				batch, resp = b, r
			})
			finish := mallocsPerRun(runs, func() {
				if _, err := batch.Finish(resp); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("per sample: NewBatch+HandleBatch %.2f, Finish %.2f", query/B, finish/B)
			if query > 2*B {
				t.Errorf("NewBatch+HandleBatch: %.2f allocations per sample, want at most 2", query/B)
			}
			if finish > B {
				t.Errorf("Finish: %.2f allocations per sample, want at most 1", finish/B)
			}
		})
	}
}
