package svm

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

func TestKernelWireRoundTrip(t *testing.T) {
	in := &Kernel{Kind: KernelPolynomial, A0: 0.125, B0: -1.5, Degree: 3, Gamma: 0.01, C0: 2.25}
	data, err := wire.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out Kernel
	if err := wire.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out != *in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, *in)
	}
	for n := 0; n < len(data); n++ {
		var tr Kernel
		if err := wire.Unmarshal(data[:n], &tr); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrTrailing) {
			t.Fatalf("prefix %d: got %v, want typed error", n, err)
		}
	}
}
