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

// orderedState is one worker's state in TestOrderedDrawsInOrder: the
// index its last draw wrote, and a flag that catches two goroutines
// sharing it.
type orderedState struct {
	drawn int
	busy  atomic.Bool
}

// TestOrderedDrawsInOrder: at every worker count, Ordered runs draw in
// ascending index order, one call at a time, and runs fn(i) on the
// worker, and with the state, that drew i, before that worker draws
// again; no state is used by two goroutines at once.
func TestOrderedDrawsInOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		paralleltest.SetProcs(t, procs)
		for _, n := range []int{0, 1, 2, 7, 200} {
			var order []int // written only inside the ordered section
			var ran atomic.Int64
			newState := func() *orderedState { return &orderedState{drawn: -1} }
			draw := func(s *orderedState, i int) error {
				if !s.busy.CompareAndSwap(false, true) {
					return fmt.Errorf("draw %d: state in use", i)
				}
				order = append(order, i)
				s.drawn = i
				return nil
			}
			fn := func(s *orderedState, i int) error {
				defer s.busy.Store(false)
				if s.drawn != i {
					return fmt.Errorf("fn %d ran on the state that drew %d", i, s.drawn)
				}
				ran.Add(1)
				return nil
			}
			if err := Ordered(n, newState, draw, fn); err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			if int(ran.Load()) != n || len(order) != n {
				t.Fatalf("procs=%d n=%d: %d draws and %d fn calls", procs, n, len(order), ran.Load())
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("procs=%d n=%d: draw %d was index %d", procs, n, i, got)
				}
			}
		}
	}
}

// TestOrderedDrawErrorStopsLaterDraws: a failing draw is the error
// Ordered returns, and no later index is drawn.
func TestOrderedDrawErrorStopsLaterDraws(t *testing.T) {
	boom := errors.New("boom")
	const n, bad = 50, 17
	for _, procs := range []int{1, 4} {
		paralleltest.SetProcs(t, procs)
		var last atomic.Int64
		err := Ordered(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			last.Store(int64(i))
			if i == bad {
				return boom
			}
			return nil
		}, func(struct{}, int) error { return nil })
		if !errors.Is(err, boom) {
			t.Fatalf("procs=%d: got %v, want boom", procs, err)
		}
		if last.Load() != bad {
			t.Fatalf("procs=%d: drew up to %d after a failing draw at %d", procs, last.Load(), bad)
		}
	}
}
