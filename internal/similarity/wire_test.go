package similarity

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/field"
	"repro/internal/svm"
	"repro/internal/wire"
)

func sampleSpec() Spec {
	return Spec{
		Dim:           4,
		Metric:        Metric{Alpha: -1, Beta: 1, L0: 0.5, Theta0: 0.25},
		MaskDegree:    4,
		CoverFactor:   2,
		AmplifierBits: 40,
		FieldBits:     1024,
		FracBits:      12,
		GroupName:     "x25519",
	}
}

func similarityWireSamples() map[string]wire.Msg {
	spec := sampleSpec()
	return map[string]wire.Msg{
		"Spec":       &spec,
		"Metric":     &Metric{Alpha: -2, Beta: 2, L0: 1.5, Theta0: 0.1},
		"ClearShare": &ClearShare{NormM2: 1.25},
		"KernelSpec": &KernelSpec{Spec: sampleSpec(), Kernel: svm.Polynomial(0.5, 0, 3)},
		"KernelClearShare": &KernelClearShare{
			KmBmB: 3.5, NumSupport: 7,
			AlphaSum: bytes.Repeat([]byte{0x0B}, 76),
		},
	}
}

func reencode(t *testing.T, m wire.Msg) []byte {
	t.Helper()
	data, err := wire.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return data
}

func TestSimilarityWireRoundTrips(t *testing.T) {
	for name, in := range similarityWireSamples() {
		t.Run(name, func(t *testing.T) {
			data, err := wire.Marshal(in)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(data, out); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !bytes.Equal(reencode(t, out), data) {
				t.Fatalf("slice round trip mismatch")
			}

			out3 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
			if err := wire.Unmarshal(append(append([]byte{}, data...), 0xFF), out3); !errors.Is(err, wire.ErrTrailing) {
				t.Fatalf("trailing byte: got %v, want ErrTrailing", err)
			}

			for n := 0; n < len(data); n++ {
				out4 := reflect.New(reflect.TypeOf(in).Elem()).Interface().(wire.Msg)
				if err := wire.Unmarshal(data[:n], out4); err == nil {
					t.Fatalf("prefix %d/%d decoded cleanly", n, len(data))
				}
			}
		})
	}
}

// TestKernelClearShareNilAlphaSum: a share without its alpha sum travels
// as an empty blob, which no field takes for an element, so Alice refuses
// it (TestKernelClearShareValidation's nil-alpha-sum row).
func TestKernelClearShareNilAlphaSum(t *testing.T) {
	data, err := wire.Marshal(&KernelClearShare{KmBmB: 1, NumSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got KernelClearShare
	if err := wire.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.AlphaSum) != 0 {
		t.Fatalf("alpha sum decoded to %d bytes, want none", len(got.AlphaSum))
	}
	f, err := field.ByBits(521)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.FromBytes(got.AlphaSum); err == nil {
		t.Fatal("an empty alpha sum reads as a field element")
	}
}
