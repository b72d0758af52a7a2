//go:build race

package ompe

// raceEnabled reports a -race build, whose instrumentation moves heap
// allocation counts, so the allocation pins skip under it.
const raceEnabled = true
