package svm

import "repro/internal/wire"

// EncodeWire implements the wire codec.
func (k *Kernel) EncodeWire(w *wire.Writer) {
	w.Int(int(k.Kind))
	w.Float64(k.A0)
	w.Float64(k.B0)
	w.Int(k.Degree)
	w.Float64(k.Gamma)
	w.Float64(k.C0)
}

// DecodeWire implements the wire codec.
func (k *Kernel) DecodeWire(r *wire.Reader) {
	k.Kind = KernelKind(r.Int())
	k.A0 = r.Float64()
	k.B0 = r.Float64()
	k.Degree = r.Int()
	k.Gamma = r.Float64()
	k.C0 = r.Float64()
}
