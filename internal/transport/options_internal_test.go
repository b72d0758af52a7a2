package transport

import (
	mrand "math/rand"
	"testing"
	"time"
)

// TestBackoffDelaySchedule: delays double from the base, cap at the max,
// and jitter stays within [1/2, 1] of the nominal value.
func TestBackoffDelaySchedule(t *testing.T) {
	nominal := []time.Duration{
		100 * time.Millisecond, // retry 1
		200 * time.Millisecond, // retry 2
		400 * time.Millisecond, // retry 3
		800 * time.Millisecond, // retry 4 (cap)
		800 * time.Millisecond, // retry 5 (still capped)
	}
	rng := mrand.New(mrand.NewSource(5))
	for i, want := range nominal {
		got := backoffDelay(i+1, 100*time.Millisecond, 800*time.Millisecond, rng)
		if got < want/2 || got > want {
			t.Fatalf("retry %d: delay %v outside [%v, %v]", i+1, got, want/2, want)
		}
	}
}

// TestBackoffDelayDeterministic: the same jitter seed reproduces the same
// delay sequence.
func TestBackoffDelayDeterministic(t *testing.T) {
	a := mrand.New(mrand.NewSource(11))
	b := mrand.New(mrand.NewSource(11))
	for retry := 1; retry <= 6; retry++ {
		if da, db := backoffDelay(retry, backoffBase, backoffMax, a), backoffDelay(retry, backoffBase, backoffMax, b); da != db {
			t.Fatalf("retry %d: %v vs %v with identical seeds", retry, da, db)
		}
	}
}

// TestOptionsDefaults: the zero value resolves to the documented
// defaults, and NoDeadline disables the message deadline.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DialTimeout != DefaultDialTimeout || o.MessageDeadline != DefaultMessageDeadline ||
		o.MaxAttempts != DefaultMaxAttempts {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if d := (Options{}).messageDeadline(); d != DefaultMessageDeadline {
		t.Fatalf("zero deadline resolved to %v", d)
	}
	if d := (Options{MessageDeadline: NoDeadline}).messageDeadline(); d != 0 {
		t.Fatalf("NoDeadline resolved to %v", d)
	}
}
