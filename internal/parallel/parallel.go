// Package parallel is the shared worker-pool engine behind every
// data-parallel hot path of the protocol stack: the sender's masked
// evaluations over every (sample, pair) unit of a batch, the receiver's
// per-sample request construction, and the IKNP extension's per-column
// and per-row work. A Naor–Pinkas k-of-n is one batch that shares its
// constraints and r, and runs serially.
//
// One call, one fan-out: a batch of B samples runs one region over all of
// its units, never a region per sample, so a query costs no goroutine
// starts of its own. ForEach gives each worker state it reuses across the
// iterations it claims; Ordered adds a section that runs in index order.
//
// Randomness is drawn serially, in the exact order the serial code would
// draw it: either before the region, or inside Ordered's draw section,
// which runs one call at a time in ascending index order. Only pure
// arithmetic runs concurrently. Results are therefore bit-identical at
// every GOMAXPROCS given the same rng stream (see DESIGN.md §7).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), distributing iterations across
// min(GOMAXPROCS, n) workers. Iterations are handed out one index at a
// time from an atomic counter, which balances uneven per-item cost (big.Int
// work varies with operand values) without any chunk tuning.
//
// Error handling is deadlock-free by construction: the first failure sets a
// flag that stops workers from claiming new iterations, every worker exits
// on its own (nothing blocks on a channel), and For returns the error with
// the lowest iteration index among those that were reported. Indices are
// claimed in ascending order, so that is the error a serial loop returns.
// With one worker the loop runs inline and matches a plain serial for-loop
// exactly.
func For(n int, fn func(i int) error) error {
	if min(runtime.GOMAXPROCS(0), n) <= 1 {
		// Inline, and before the adapter below exists: a serial For
		// allocates nothing of its own.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	return ForEach(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error { return fn(i) })
}

// ForEach is For with per-worker state: each worker calls newState once,
// before its first iteration, and hands the result to every fn call it
// makes, so an iteration can reuse scratch no other worker touches. The
// state lives for one call; nothing carries over to the next.
func ForEach[S any](n int, newState func() S, fn func(s S, i int) error) error {
	return Ordered(n, newState, nil, fn)
}

// Ordered is ForEach with an ordered section: for every i, draw(s, i) and
// then fn(s, i) run on one worker with one state, and the draw calls run
// one at a time in ascending i, as a serial loop makes them, while fn
// calls run concurrently with each other and with later draws. A caller
// draws a unit's randomness into per-worker state in draw and spends it
// in fn. With one worker it is the serial loop draw(0), fn(0), draw(1),
// fn(1), and so on. A failing draw stops every later one. A nil draw
// makes Ordered ForEach.
func Ordered[S any](n int, newState func() S, draw, fn func(s S, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		s := newState()
		for i := 0; i < n; i++ {
			if draw != nil {
				if err := draw(s, i); err != nil {
					return err
				}
			}
			if err := fn(s, i); err != nil {
				return err
			}
		}
		return nil
	}

	r := &region{n: n}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			s := newState()
			for {
				var i int
				if draw == nil {
					i = r.claim()
				} else {
					i = claimDraw(r, s, draw)
				}
				if i < 0 {
					return
				}
				if err := fn(s, i); err != nil {
					r.fail(i, err)
					return
				}
			}
		}()
	}
	r.wg.Wait()
	return r.first
}

// region is one fan-out's shared state, in one allocation.
type region struct {
	n      int
	next   atomic.Int64
	failed atomic.Bool
	draws  sync.Mutex // held across a claim and its draw
	mu     sync.Mutex // guards minIdx and first
	minIdx int
	first  error
	wg     sync.WaitGroup
}

// claim takes the next index, or returns -1 once the indices run out or
// an iteration has failed.
func (r *region) claim() int {
	if r.failed.Load() {
		return -1
	}
	if i := int(r.next.Add(1)) - 1; i < r.n {
		return i
	}
	return -1
}

// claimDraw is claim followed by draw, both under the draw lock, so draws
// run one at a time in claim order, which is ascending. The lock is held
// across the caller's draw on purpose: it is the ordered section, and a
// draw only reads the caller's rng. It returns -1 when claim does or
// draw fails.
func claimDraw[S any](r *region, s S, draw func(S, int) error) int {
	r.draws.Lock()
	defer r.draws.Unlock()
	i := r.claim()
	if i < 0 {
		return -1
	}
	if err := draw(s, i); err != nil {
		// Still under the lock: no later draw can start.
		r.fail(i, err)
		return -1
	}
	return i
}

// fail records a failing index and stops further claims.
func (r *region) fail(i int, err error) {
	r.failed.Store(true)
	r.mu.Lock()
	if r.first == nil || i < r.minIdx {
		r.minIdx, r.first = i, err
	}
	r.mu.Unlock()
}
