// Package similarity implements the paper's primary contribution, part 2:
// privacy-preserving data-similarity evaluation between trained models
// (§V). Two trainers compare decision functions without revealing them,
// using the isosceles-triangle metric T² = ¼(L⁴+L₀⁴)(sin²θ+sin²θ₀) built
// from the centroid distance L of the two bounded hyperplanes and their
// included angle θ.
//
// The metric side (this file) computes boundary points over the bounded
// data space (Eq. 5), centroids, cosine similarity and the triangle area,
// both for linear models (closed form) and for kernel models (boundary
// roots by bisection along box edges). The protocol side computes the same
// metric privately with three OMPE rounds: one round machine (rounds.go)
// runs both the hyperplane variant of §V-B (linear.go) and the kernelised
// variant of §V-C (nonlinear.go), which differ only in construction and
// clear shares.
package similarity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/svm"
)

// DefaultL0 and DefaultTheta0 are the public regularizing constants of
// Eq. (4): they keep the area positive when the planes are parallel or
// share a centroid, so the two degenerate causes stay indistinguishable.
const (
	DefaultL0     = 0.05
	DefaultTheta0 = math.Pi / 36 // 5° << 90°
)

// Metric fixes the public evaluation geometry both trainers agree on.
type Metric struct {
	// Alpha and Beta bound the data space [α, β]ⁿ (the paper scales all
	// data to [−1, 1]).
	Alpha, Beta float64
	// L0 is the distance regularizer.
	L0 float64
	// Theta0 is the angle regularizer in radians.
	Theta0 float64
}

// DefaultMetric returns the paper's evaluation geometry.
func DefaultMetric() Metric {
	return Metric{Alpha: -1, Beta: 1, L0: DefaultL0, Theta0: DefaultTheta0}
}

// Validate checks the metric parameters: a finite box, a finite positive
// L0 and θ0 in (0, π/2). NaN fails every test.
func (m Metric) Validate() error {
	if !(m.Alpha < m.Beta) || math.IsInf(m.Alpha, 0) || math.IsInf(m.Beta, 0) {
		return fmt.Errorf("similarity: invalid box [%g, %g]", m.Alpha, m.Beta)
	}
	if !(m.L0 > 0) || math.IsInf(m.L0, 0) || !(m.Theta0 > 0 && m.Theta0 < math.Pi/2) {
		return fmt.Errorf("similarity: invalid regularizers L0=%g theta0=%g", m.L0, m.Theta0)
	}
	return nil
}

// ErrNoBoundary reports a decision boundary that does not intersect the
// data box, leaving the bounded hyperplane (and its centroid) undefined.
var ErrNoBoundary = errors.New("similarity: decision boundary does not cross the data box")

// maxBoundaryDim caps the boundary-point enumeration (n·2^(n-1) edge
// equations, Eq. 5).
const maxBoundaryDim = 22

// LinearBoundaryPoints solves the paper's Eq. (5): for each dimension d
// treated as the free variable and every α/β assignment of the others,
// solve w·t + b = 0 and keep solutions inside the box. The returned points
// trace the bounded hyperplane's intersection with the box edges.
func LinearBoundaryPoints(w []float64, b float64, m Metric) ([][]float64, error) {
	var points [][]float64
	if _, err := linearBoundary(w, b, m, func(p []float64) {
		points = append(points, append([]float64(nil), p...))
	}); err != nil {
		return nil, err
	}
	return points, nil
}

// linearCentroid is the centroid of a hyperplane's boundary points,
// summed in enumeration order as Centroid(LinearBoundaryPoints(w, b, m))
// sums them, so the two agree bit for bit; it allocates only the result
// and one point buffer.
func linearCentroid(w []float64, b float64, m Metric) ([]float64, error) {
	c := make([]float64, len(w))
	count, err := linearBoundary(w, b, m, func(p []float64) {
		for j, v := range p {
			c[j] += v
		}
	})
	if err != nil {
		return nil, err
	}
	for j := range c {
		c[j] /= float64(count)
	}
	return c, nil
}

// linearBoundary enumerates Eq. (5)'s boundary points in order, handing
// each to yield in one reused buffer that yield must not retain, and
// returns how many there were.
func linearBoundary(w []float64, b float64, m Metric, yield func(point []float64)) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	n := len(w)
	if n < 2 {
		return 0, fmt.Errorf("similarity: need >= 2 dimensions, got %d", n)
	}
	if n > maxBoundaryDim {
		return 0, fmt.Errorf("similarity: boundary enumeration capped at %d dims (got %d)", maxBoundaryDim, n)
	}
	count := 0
	point := make([]float64, n)
	corners := 1 << (n - 1)
	for d := 0; d < n; d++ {
		if w[d] == 0 {
			continue
		}
		for mask := 0; mask < corners; mask++ {
			sum := b
			bit := 0
			for j := 0; j < n; j++ {
				if j == d {
					continue
				}
				v := m.Alpha
				if mask&(1<<bit) != 0 {
					v = m.Beta
				}
				point[j] = v
				sum += w[j] * v
				bit++
			}
			u := -sum / w[d]
			if u >= m.Alpha && u <= m.Beta {
				point[d] = u
				yield(point)
				count++
			}
		}
	}
	if count == 0 {
		return 0, ErrNoBoundary
	}
	return count, nil
}

// KernelBoundaryPoints finds boundary points of a kernel decision function
// along the same box edges, replacing Eq. (5)'s linear solve with sign
// changes and bisection (the paper's §V-C "equations with nonlinear form").
func KernelBoundaryPoints(model *svm.Model, m Metric) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	n := model.Dim
	if n < 2 {
		return nil, fmt.Errorf("similarity: need >= 2 dimensions, got %d", n)
	}
	if n > 16 {
		return nil, fmt.Errorf("similarity: kernel boundary enumeration capped at 16 dims (got %d)", n)
	}
	const gridSteps = 16
	var points [][]float64
	corners := 1 << (n - 1)
	point := make([]float64, n)
	for d := 0; d < n; d++ {
		for mask := 0; mask < corners; mask++ {
			bit := 0
			for j := 0; j < n; j++ {
				if j == d {
					continue
				}
				if mask&(1<<bit) != 0 {
					point[j] = m.Beta
				} else {
					point[j] = m.Alpha
				}
				bit++
			}
			// Scan the free coordinate for sign changes, then bisect.
			prevU := m.Alpha
			point[d] = prevU
			prevV, err := model.Decision(point)
			if err != nil {
				return nil, err
			}
			step := (m.Beta - m.Alpha) / gridSteps
			for g := 1; g <= gridSteps; g++ {
				u := m.Alpha + float64(g)*step
				point[d] = u
				v, err := model.Decision(point)
				if err != nil {
					return nil, err
				}
				if prevV == 0 || prevV*v < 0 {
					root := prevU
					if prevV != 0 {
						root, err = bisect(model, point, d, prevU, u)
						if err != nil {
							return nil, err
						}
					}
					found := make([]float64, n)
					copy(found, point)
					found[d] = root
					points = append(points, found)
				}
				prevU, prevV = u, v
			}
		}
	}
	if len(points) == 0 {
		return nil, ErrNoBoundary
	}
	return points, nil
}

func bisect(model *svm.Model, point []float64, d int, lo, hi float64) (float64, error) {
	point[d] = lo
	flo, err := model.Decision(point)
	if err != nil {
		return 0, err
	}
	if flo == 0 {
		return lo, nil
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		point[d] = mid
		fm, err := model.Decision(point)
		if err != nil {
			return 0, err
		}
		if fm == 0 {
			return mid, nil
		}
		if (flo < 0) == (fm < 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Centroid averages boundary points.
func Centroid(points [][]float64) ([]float64, error) {
	if len(points) == 0 {
		return nil, ErrNoBoundary
	}
	n := len(points[0])
	c := make([]float64, n)
	for _, p := range points {
		if len(p) != n {
			return nil, fmt.Errorf("similarity: ragged boundary points")
		}
		for j := range c {
			c[j] += p[j]
		}
	}
	for j := range c {
		c[j] /= float64(len(points))
	}
	return c, nil
}

// CosineSimilarity returns cos θ between two normal vectors.
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("similarity: dim %d vs %d", len(a), len(b))
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0, errors.New("similarity: zero normal vector")
	}
	return dot / math.Sqrt(na*nb), nil
}

// TriangleSquared computes Eq. (4)/(6): T² = ¼(L⁴+L₀⁴)(sin²θ+sin²θ₀),
// given the squared centroid distance and cos θ.
func TriangleSquared(l2, cosTheta float64, m Metric) float64 {
	sin2 := 1 - cosTheta*cosTheta
	if sin2 < 0 {
		sin2 = 0
	}
	s0 := math.Sin(m.Theta0)
	return 0.25 * (l2*l2 + math.Pow(m.L0, 4)) * (sin2 + s0*s0)
}

// Result carries a similarity evaluation's outcome.
type Result struct {
	// T is the triangle-area metric (smaller = more similar).
	T float64
	// TSquared is T² as the protocol computes it.
	TSquared float64
	// L is the centroid distance.
	L float64
	// CosTheta is the models' cosine similarity.
	CosTheta float64
}

// EvaluateLinear computes the metric in the clear for two linear models
// (the paper's "ordinary similarity evaluation" baseline of Fig. 10).
func EvaluateLinear(wA []float64, bA float64, wB []float64, bB float64, m Metric) (*Result, error) {
	if len(wA) != len(wB) {
		return nil, fmt.Errorf("similarity: dim %d vs %d", len(wA), len(wB))
	}
	ptsA, err := LinearBoundaryPoints(wA, bA, m)
	if err != nil {
		return nil, fmt.Errorf("model A: %w", err)
	}
	ptsB, err := LinearBoundaryPoints(wB, bB, m)
	if err != nil {
		return nil, fmt.Errorf("model B: %w", err)
	}
	mA, err := Centroid(ptsA)
	if err != nil {
		return nil, err
	}
	mB, err := Centroid(ptsB)
	if err != nil {
		return nil, err
	}
	l2 := 0.0
	for j := range mA {
		d := mA[j] - mB[j]
		l2 += d * d
	}
	cosT, err := CosineSimilarity(wA, wB)
	if err != nil {
		return nil, err
	}
	t2 := TriangleSquared(l2, cosT, m)
	return &Result{T: math.Sqrt(t2), TSquared: t2, L: math.Sqrt(l2), CosTheta: cosT}, nil
}

// EvaluateKernel computes the metric in the clear for two kernel models
// sharing a kernel: centroids come from bisection boundary points, and the
// angle is measured between the feature-space normals via
// cos θ = K(wA,wB)/√(K(wA,wA)·K(wB,wB)) (§V-C).
func EvaluateKernel(a, b *svm.Model, m Metric) (*Result, error) {
	if a.Kernel != b.Kernel {
		return nil, fmt.Errorf("similarity: models use different kernels (%v vs %v)", a.Kernel.Kind, b.Kernel.Kind)
	}
	ptsA, err := KernelBoundaryPoints(a, m)
	if err != nil {
		return nil, fmt.Errorf("model A: %w", err)
	}
	ptsB, err := KernelBoundaryPoints(b, m)
	if err != nil {
		return nil, fmt.Errorf("model B: %w", err)
	}
	mA, err := Centroid(ptsA)
	if err != nil {
		return nil, err
	}
	mB, err := Centroid(ptsB)
	if err != nil {
		return nil, err
	}
	// K(mA,mA), K(mB,mB), K(mA,mB) and the same for the normals.
	var km, kw [3]float64
	for i, pair := range [3][2][]float64{{mA, mA}, {mB, mB}, {mA, mB}} {
		if km[i], err = a.Kernel.Eval(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	for i, pair := range [3][2]*svm.Model{{a, a}, {b, b}, {a, b}} {
		if kw[i], err = featureDot(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	l2 := max(km[0]+km[1]-2*km[2], 0)
	if kw[0] <= 0 || kw[1] <= 0 {
		return nil, errors.New("similarity: non-positive feature-space norm")
	}
	cosT := kw[2] / math.Sqrt(kw[0]*kw[1])
	t2 := TriangleSquared(l2, cosT, m)
	return &Result{T: math.Sqrt(t2), TSquared: t2, L: math.Sqrt(l2), CosTheta: cosT}, nil
}

// featureDot is K(wA,wB) = Σ_s Σ_t αyA_s·αyB_t·K(xA_s,xB_t), the inner
// product of two feature-space normals w = Σ αy·φ(x) under A's kernel.
func featureDot(a, b *svm.Model) (float64, error) {
	acc := 0.0
	for i, xi := range a.SupportVectors {
		for j, xj := range b.SupportVectors {
			k, err := a.Kernel.Eval(xi, xj)
			if err != nil {
				return 0, err
			}
			acc += a.AlphaY[i] * b.AlphaY[j] * k
		}
	}
	return acc, nil
}
