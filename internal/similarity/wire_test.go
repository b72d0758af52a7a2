package similarity

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"testing"

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
		GroupName:     "modp512",
	}
}

func similarityWireSamples() map[string]wire.Msg {
	spec := sampleSpec()
	return map[string]wire.Msg{
		"Spec":       &spec,
		"Metric":     &Metric{Alpha: -2, Beta: 2, L0: 1.5, Theta0: 0.1},
		"ClearShare": &ClearShare{NormM2: 1.25, NormW2: 2.5},
		"KernelSpec": &KernelSpec{Spec: sampleSpec(), Kernel: svm.Polynomial(0.5, 0, 3)},
		"KernelClearShare": &KernelClearShare{
			KmBmB: 3.5, KwBwB: 4.5, NumSupport: 7,
			AlphaSum: new(big.Int).Lsh(big.NewInt(11), 100),
		},
		"AreaScale": &AreaScale{C3Exp: 17, TotalExp: 42},
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

func TestKernelClearShareNilAlphaSum(t *testing.T) {
	m := &KernelClearShare{KmBmB: 1, KwBwB: 2, NumSupport: 3}
	if _, err := wire.Marshal(m); !errors.Is(err, wire.ErrNilValue) {
		t.Fatalf("got %v, want ErrNilValue", err)
	}
}
