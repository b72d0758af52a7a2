package similarity

import "math/big"

// RoundValues exposes Bob's decoded round outputs to the external tests:
// x1 once the centroid round finishes, x2 after every normal round.
func (b *requester) RoundValues() (x1, x2 *big.Int) { return b.x1, b.x2 }

// LinearCentroid and LinearAreaBits expose the streaming centroid and the
// hyperplane variant's field sizing to the external tests.
var (
	LinearCentroid = linearCentroid
	LinearAreaBits = linearAreaBits
)

// LinearFracBits is the hyperplane variant's fixed-point precision.
const LinearFracBits = linearFracBits
