package similarity

import (
	"repro/internal/wire"
)

// Binary wire encodings for the similarity message types.

// EncodeWire implements the wire codec. The Spec ends in a reserved empty
// string, so recorded transcripts keep their bytes.
func (s *Spec) EncodeWire(w *wire.Writer) {
	w.Int(s.Dim)
	s.Metric.EncodeWire(w)
	w.Int(s.MaskDegree)
	w.Int(s.CoverFactor)
	w.Int(s.AmplifierBits)
	w.Int(s.FieldBits)
	w.Uint(s.FracBits)
	w.String(s.GroupName)
	w.String("")
}

// DecodeWire implements the wire codec.
func (s *Spec) DecodeWire(r *wire.Reader) {
	s.Dim = r.Int()
	s.Metric.DecodeWire(r)
	s.MaskDegree = r.Int()
	s.CoverFactor = r.Int()
	s.AmplifierBits = r.Int()
	s.FieldBits = r.Int()
	s.FracBits = r.Uint()
	s.GroupName = r.String()
	_ = r.String()
}

// EncodeWire implements the wire codec.
func (m *Metric) EncodeWire(w *wire.Writer) {
	w.Float64(m.Alpha)
	w.Float64(m.Beta)
	w.Float64(m.L0)
	w.Float64(m.Theta0)
}

// DecodeWire implements the wire codec.
func (m *Metric) DecodeWire(r *wire.Reader) {
	m.Alpha = r.Float64()
	m.Beta = r.Float64()
	m.L0 = r.Float64()
	m.Theta0 = r.Float64()
}

// EncodeWire implements the wire codec.
func (c *ClearShare) EncodeWire(w *wire.Writer) {
	w.Float64(c.NormM2)
}

// DecodeWire implements the wire codec.
func (c *ClearShare) DecodeWire(r *wire.Reader) {
	c.NormM2 = r.Float64()
}

// EncodeWire implements the wire codec.
func (s *KernelSpec) EncodeWire(w *wire.Writer) {
	s.Spec.EncodeWire(w)
	s.Kernel.EncodeWire(w)
}

// DecodeWire implements the wire codec.
func (s *KernelSpec) DecodeWire(r *wire.Reader) {
	s.Spec.DecodeWire(r)
	s.Kernel.DecodeWire(r)
}

// EncodeWire implements the wire codec.
func (c *KernelClearShare) EncodeWire(w *wire.Writer) {
	w.Float64(c.KmBmB)
	w.Int(c.NumSupport)
	w.ByteSlice(c.AlphaSum)
}

// DecodeWire implements the wire codec.
func (c *KernelClearShare) DecodeWire(r *wire.Reader) {
	c.KmBmB = r.Float64()
	c.NumSupport = r.Int()
	c.AlphaSum = r.ByteSlice()
}
