package main

import (
	"strings"
	"testing"
)

func TestParseSample(t *testing.T) {
	got, err := parseSample("0.5, -1, 0.25", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.5 || got[1] != -1 || got[2] != 0.25 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseSample("1,2", 3); err == nil {
		t.Fatal("wrong arity should fail")
	}
	if _, err := parseSample("1,x,3", 3); err == nil {
		t.Fatal("non-numeric should fail")
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if err := run(nil); err == nil {
		t.Fatal("missing mode should fail")
	}
	// The negative batch keeps the call from dialing should the removed
	// flag ever parse again.
	for _, removed := range []string{"-pad=aes", "-fast", "-field-backend=limb"} {
		if err := run([]string{"classify", removed, "-batch=-1"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("removed flag %s: got %v, want an undefined-flag error", removed, err)
		}
	}
}
