// Package parallel is the shared worker-pool engine behind every
// data-parallel hot path of the protocol stack: the sender's masked
// evaluations over all M = m·k pairs, the receiver's cover evaluations,
// and the IKNP extension's per-column and per-row work. A Naor–Pinkas
// k-of-n is one batch that shares its constraints and r, and runs
// serially.
//
// The engine parallelizes *pure computation only*. Randomness is never
// drawn inside a parallel region: callers pre-draw every rng value in the
// exact order the serial code would, then fan the deterministic arithmetic
// out across workers. Results are therefore bit-identical at every
// GOMAXPROCS given the same rng stream (see DESIGN.md §7).
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
// the lowest iteration index among those that were reported. With one
// worker the loop runs inline and matches a plain serial for-loop exactly,
// including which error is returned.
func For(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		minIdx = -1
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if minIdx == -1 || i < minIdx {
						minIdx, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
