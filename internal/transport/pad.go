package transport

// OT-pad negotiation (DESIGN.md §14). The pad family rides the Hello/spec
// exchange: the client's Hello lists the pad functions it can run, the
// server grants one in the spec's PadFunc field, and both endpoints hand
// the grant to their OT extension before the base phase. The zero-valued
// grant means the SHA-256 pad, and a default client offers no pads at
// all.

import (
	"fmt"

	"repro/internal/ot"
)

// defaultPadFuncs is the grant preference order of a current build: the
// AES pad when the client can run it (it is strictly cheaper), the
// legacy SHA-256 pad otherwise.
func defaultPadFuncs() []string {
	return []string{string(ot.PadAES), string(ot.PadSHA256)}
}

// grantPadFunc picks the session pad from the client's offer and the
// server's support list: the first supported pad the client offered,
// falling back to SHA-256 (which every peer speaks). The returned grant
// is "" for SHA-256, the zero value a client that offered nothing
// expects.
func grantPadFunc(offered, supported []string) string {
	for _, name := range supported {
		if name == string(ot.PadSHA256) {
			return ""
		}
		for _, o := range offered {
			if o == name {
				return name
			}
		}
	}
	return ""
}

// validatePadGrant checks the server's pad grant against what the client
// offered: a server must never select a pad the client did not offer
// (SHA-256 excepted — it is the universal fallback).
func validatePadGrant(grant string, offered []string) error {
	if grant == "" || grant == string(ot.PadSHA256) {
		return nil
	}
	for _, o := range offered {
		if o == grant {
			return nil
		}
	}
	return fmt.Errorf("%w: server granted pad %q, offered %v", ot.ErrPadFunc, grant, offered)
}
