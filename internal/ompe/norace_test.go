//go:build !race

package ompe

const raceEnabled = false
