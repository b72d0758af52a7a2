//go:build race

package ot

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts are not reproducible under it.
const raceEnabled = true
