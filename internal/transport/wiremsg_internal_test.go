package transport

import "testing"

// TestTagRegistry checks the frame tag registry both ways: every tag
// newBinPayload allocates a payload for maps back to itself through
// binMsg, and the retired tags 11–12, 14–18 and 21–24 stay unknown.
func TestTagRegistry(t *testing.T) {
	retired := map[byte]bool{11: true, 12: true, 14: true, 15: true, 16: true, 17: true, 18: true, 21: true, 22: true, 23: true, 24: true}
	known := 0
	for tag := 0; tag < 256; tag++ {
		msg, ok := newBinPayload(byte(tag))
		if !ok {
			continue
		}
		known++
		if retired[byte(tag)] {
			t.Errorf("retired tag %d allocates %T", tag, msg)
		}
		got, _, ok := binMsg(msg)
		if !ok || got != byte(tag) {
			t.Errorf("tag %d allocates %T, which binMsg maps to tag %d (ok=%v)", tag, msg, got, ok)
		}
	}
	// Tags 1–10, 13, 19–20 and 25–26: tag 0 is the error frame.
	if want := 15; known != want {
		t.Errorf("%d tags allocate a payload, want %d", known, want)
	}
}
