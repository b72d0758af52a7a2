package classify

import (
	"repro/internal/wire"
)

// EncodeWire implements the wire codec. WireCodec and PadFunc are not
// encoded.
func (s *Spec) EncodeWire(w *wire.Writer) {
	s.Kernel.EncodeWire(w)
	w.Int(s.Dim)
	w.Int(int(s.Mode))
	w.Int(s.MaskDegree)
	w.Int(s.CoverFactor)
	w.Int(s.AmplifierBits)
	w.Int(s.TaylorTerms)
	w.Int(s.FieldBits)
	w.Uint(s.FracBits)
	w.String(s.GroupName)
	w.Bool(s.ResumeGranted)
}

// DecodeWire implements the wire codec.
func (s *Spec) DecodeWire(r *wire.Reader) {
	s.Kernel.DecodeWire(r)
	s.Dim = r.Int()
	s.Mode = Mode(r.Int())
	s.MaskDegree = r.Int()
	s.CoverFactor = r.Int()
	s.AmplifierBits = r.Int()
	s.TaylorTerms = r.Int()
	s.FieldBits = r.Int()
	s.FracBits = r.Uint()
	s.GroupName = r.String()
	s.ResumeGranted = r.Bool()
}
