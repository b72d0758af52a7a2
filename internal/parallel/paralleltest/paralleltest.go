// Package paralleltest pins the worker count of parallel.For inside a
// test.
package paralleltest

import (
	"runtime"
	"testing"
)

// SetProcs sets GOMAXPROCS, and with it the worker count of every
// parallel.For, to n for the rest of the test, and restores the previous
// value when the test ends. GOMAXPROCS is process-wide, so a test that
// calls SetProcs must not call t.Parallel.
func SetProcs(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
