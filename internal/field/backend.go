package field

// Backend names a field-arithmetic engine.
//
// Deprecated: the field picks the engine. Every session over 2^255−19
// runs the fixed-width limb engine and every other field runs math/big
// (see SupportsLimb); nothing reads a Backend value.
type Backend string

const (
	// BackendBig names the math/big engine.
	//
	// Deprecated: see Backend.
	BackendBig Backend = "big"
	// BackendLimb names the limb engine.
	//
	// Deprecated: see Backend.
	BackendLimb Backend = "limb"
)

// OrDefault maps the zero value to BackendBig.
//
// Deprecated: see Backend.
func (b Backend) OrDefault() Backend {
	if b == "" {
		return BackendBig
	}
	return b
}

// SupportsLimb reports whether the modulus is exactly 2^255−19, the one
// field the fixed-width limb engine (internal/field/limb) computes in.
// Both engines produce the same residues and canonical bytes; the limb
// engine runs every per-element operation without allocating, so the
// protocols use it wherever this holds and math/big everywhere else.
func (f *Field) SupportsLimb() bool { return f.limb }
