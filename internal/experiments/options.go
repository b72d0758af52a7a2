// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) from this repository's implementations. Each
// experiment returns structured rows; cmd/ppdc-bench renders them as the
// paper's tables/series and the root benchmarks time their cores.
//
// The per-experiment index lives in DESIGN.md §4; paper-vs-measured
// numbers live in EXPERIMENTS.md.
package experiments

import (
	crand "crypto/rand"
	"io"
	"math/rand/v2"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives the deterministic data generators.
	Seed uint64
	// Quick subsamples the protocol-heavy experiments to keep a full run
	// in seconds rather than minutes.
	Quick bool
	// FullScale uses the paper's full test-set sizes.
	FullScale bool
	// Rand is the protocol entropy source (default crypto/rand.Reader).
	Rand io.Reader
}

func (o Options) withDefaults() Options {
	if o.Rand == nil {
		o.Rand = crand.Reader
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// sampleRNG derives a deterministic generator for data sampling (distinct
// from protocol entropy).
func (o Options) sampleRNG(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed+salt, 0x51ab_cafe_f00d_0001+salt))
}

// subsetSize picks how many samples of a test set run through the private
// protocol.
func (o Options) subsetSize(full int) int {
	if o.FullScale {
		return full
	}
	cap := 200
	if o.Quick {
		cap = 30
	}
	if full < cap {
		return full
	}
	return cap
}
