//go:build !race

package ot

const raceEnabled = false
