package classify

import (
	"bytes"
	"testing"

	"repro/internal/svm"
	"repro/internal/wire"
)

func TestSpecWireRoundTrip(t *testing.T) {
	in := &Spec{
		Kernel:        svm.Polynomial(0.25, 1, 3),
		Dim:           8,
		Mode:          ModeExpanded,
		MaskDegree:    6,
		CoverFactor:   2,
		AmplifierBits: 40,
		TaylorTerms:   0,
		FieldBits:     512,
		FracBits:      16,
		GroupName:     "x25519",
		ResumeGranted: true,
	}
	data, err := wire.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out Spec
	if err := wire.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out != *in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", *in, out)
	}
	// The layout is fixed: WireCodec and PadFunc never reach the wire,
	// and every strict prefix is a truncation that must fail.
	deprecated := *in
	deprecated.WireCodec = "binary" //nolint:staticcheck // the deprecated surface is under test
	deprecated.PadFunc = "aes"      //nolint:staticcheck // the deprecated surface is under test
	if b, err := wire.Marshal(&deprecated); err != nil || !bytes.Equal(b, data) {
		t.Fatalf("WireCodec or PadFunc changed the encoding (err %v)", err)
	}
	for n := 0; n < len(data); n++ {
		var tr Spec
		if err := wire.Unmarshal(data[:n], &tr); err == nil {
			t.Fatalf("prefix %d/%d decoded cleanly", n, len(data))
		}
	}
}
