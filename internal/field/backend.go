package field

import (
	"fmt"

	"repro/internal/field/limb"
)

// Backend names a field-arithmetic implementation. The protocol semantics
// are identical across backends — both compute in the same prime field and
// produce the same canonical byte encodings — but the execution strategy
// differs:
//
//   - BackendBig is the portable math/big path. It works over every
//     built-in prime and allocates per operation.
//   - BackendLimb is the fixed-width [4]uint64 path (internal/field/limb)
//     on plain residues — a 512-bit product folded by 2^256 ≡ 38 — with
//     zero allocations per element op.
//     It is only valid over the 2^255−19 field.
//
// The zero value selects BackendBig.
type Backend string

const (
	// BackendBig selects the math/big implementation (default).
	BackendBig Backend = "big"
	// BackendLimb selects the fixed-width limb implementation; requires
	// the 2^255−19 field.
	BackendLimb Backend = "limb"
)

// ResolveBackend parses a backend name. The empty string resolves to
// BackendBig for compatibility with peers that never set the field.
func ResolveBackend(name string) (Backend, error) {
	switch Backend(name) {
	case "", BackendBig:
		return BackendBig, nil
	case BackendLimb:
		return BackendLimb, nil
	default:
		return "", fmt.Errorf("field: unknown backend %q (want %q or %q)", name, BackendBig, BackendLimb)
	}
}

// OrDefault maps the zero value to BackendBig.
func (b Backend) OrDefault() Backend {
	if b == "" {
		return BackendBig
	}
	return b
}

// Validate rejects unknown backend names.
func (b Backend) Validate() error {
	_, err := ResolveBackend(string(b))
	return err
}

// SupportsLimb reports whether the limb backend can serve this field,
// i.e. whether the modulus is exactly 2^255−19.
func (f *Field) SupportsLimb() bool {
	return f.p.Cmp(limb.Modulus()) == 0
}

// CheckBackend verifies that the given backend can run over f.
func (f *Field) CheckBackend(b Backend) error {
	switch b.OrDefault() {
	case BackendBig:
		return nil
	case BackendLimb:
		if !f.SupportsLimb() {
			return fmt.Errorf("field: limb backend requires the 2^255−19 field, have %d bits", f.bits)
		}
		return nil
	default:
		return b.Validate()
	}
}
