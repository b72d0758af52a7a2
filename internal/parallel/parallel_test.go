package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/parallel/paralleltest"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8, 100} {
		paralleltest.SetProcs(t, procs)
		for _, n := range []int{0, 1, 2, 5, 97} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n)
			err := For(n, func(i int) error {
				if i < 0 || i >= n {
					return fmt.Errorf("index %d out of range", i)
				}
				if seen[i].Swap(true) {
					return fmt.Errorf("index %d visited twice", i)
				}
				hits.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			if int(hits.Load()) != n {
				t.Fatalf("procs=%d n=%d: %d iterations ran", procs, n, hits.Load())
			}
		}
	}
}

func TestForSerialErrorStopsEarly(t *testing.T) {
	paralleltest.SetProcs(t, 1)
	boom := errors.New("boom")
	ran := 0
	err := For(10, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if ran != 4 {
		t.Fatalf("serial path ran %d iterations after error, want 4", ran)
	}
}

func TestForParallelReportsLowestIndexError(t *testing.T) {
	// Every iteration fails with an index-tagged error; the winner must be
	// the lowest index that actually ran, and the call must not deadlock.
	paralleltest.SetProcs(t, 8)
	for trial := 0; trial < 20; trial++ {
		var lowest atomic.Int64
		lowest.Store(1 << 30)
		err := For(50, func(i int) error {
			for {
				cur := lowest.Load()
				if int64(i) >= cur || lowest.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			return fmt.Errorf("fail-%d", i)
		})
		if err == nil {
			t.Fatal("want an error")
		}
		want := fmt.Sprintf("fail-%d", lowest.Load())
		if err.Error() != want {
			t.Fatalf("got %q, want lowest ran error %q", err, want)
		}
	}
}

func TestForEmpty(t *testing.T) {
	if err := For(0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}
