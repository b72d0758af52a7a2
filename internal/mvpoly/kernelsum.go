package mvpoly

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
)

// maxKernelSumNodes caps the trie a KernelSum may allocate. Callers choose
// the trie only when it is the cheaper form, which keeps it far below this.
const maxKernelSumNodes = 1 << 24

// KernelSum is the polynomial-kernel decision function
//
//	d(z) = Σ_s w_s·(a_s·z + b0)^p + bias
//
// over a prime field, expanded once into its C(n+p, p) monomials of degree
// ≤ p and stored as a trie over nondecreasing variable indices in DFS
// preorder: the node reached by the path (v_1 ≤ … ≤ v_j) holds the
// coefficient of z_{v_1}·…·z_{v_j}, which is
//
//	C(p, j) · b0^(p−j) · multinomial(j; e) · Σ_s w_s·Π_i a_s[v_i]  (mod P)
//
// with e the exponent vector of the path, plus bias at the root. The
// expansion is the same element of F_P[z] as the kernel form, so both
// evaluate to the same residue at every point. Evaluation is a nested
// Horner, node = c + Σ_{v ≥ last} z_v·child_v: one multiplication per
// edge, and on math/big one reduction per inner node.
//
// A KernelSum is immutable after construction and safe for concurrent
// Eval and EvalLimb.
type KernelSum struct {
	mod    *big.Int
	nvars  int
	degree int
	// Per node, in preorder: coefficient, the variable on the edge from
	// the parent (unused at the root), and one past the last node of the
	// subtree. A node is a leaf exactly when end == its index + 1.
	coeffs []*big.Int
	vars   []int
	end    []int
	// lcoeffs mirrors coeffs on limb elements when the field is 2^255−19.
	lcoeffs []limb.Element
}

// KernelSumNodes returns C(n+p, p), the number of monomials of degree ≤ p
// in n variables and so the node count of a KernelSum's trie.
func KernelSumNodes(n, p int) *big.Int {
	return binomial(n+p, p)
}

// NewKernelSum expands Σ_s weights[s]·(rows[s]·z + b0)^p + bias. Every row
// must have the same length n ≥ 1; the field elements are used as given.
// The build makes one prefix-product walk of the trie per row, summing
// unreduced products into each node and reducing once per node.
func NewKernelSum(f *field.Field, weights []*big.Int, rows []field.Vec, b0 *big.Int, p int, bias *big.Int) (*KernelSum, error) {
	if p < 1 {
		return nil, ErrBadDegree
	}
	if len(rows) != len(weights) {
		return nil, fmt.Errorf("mvpoly: %d rows but %d weights", len(rows), len(weights))
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("mvpoly: kernel sum needs at least one non-empty row")
	}
	n := len(rows[0])
	for s, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d components, want %d", ErrArity, s, len(row), n)
		}
	}
	count := KernelSumNodes(n, p)
	if !count.IsInt64() || count.Int64() > maxKernelSumNodes {
		return nil, fmt.Errorf("mvpoly: kernel sum of degree %d over %d variables has %v monomials (max %d)", p, n, count, maxKernelSumNodes)
	}
	nodes := int(count.Int64())
	k := &KernelSum{
		mod:    f.Modulus(),
		nvars:  n,
		degree: p,
		coeffs: make([]*big.Int, nodes),
		vars:   make([]int, nodes),
		end:    make([]int, nodes),
	}
	depth := make([]int, nodes)

	// Lay out the trie, parking each node's integer factor
	// p!/((p−j)!·Π e_v!) = C(p, j)·multinomial(j; e) in its coefficient
	// slot. The factor grows by (p−j)/(e_v+1) along an edge that raises
	// e_v; the division is exact.
	next := 0
	var layout func(d, last, run int, factor *big.Int)
	layout = func(d, last, run int, factor *big.Int) {
		i := next
		next++
		depth[i] = d
		k.coeffs[i] = factor
		if d < p {
			for v := last; v < n; v++ {
				r := 0
				if d > 0 && v == last {
					r = run
				}
				child := new(big.Int).Mul(factor, big.NewInt(int64(p-d)))
				child.Quo(child, big.NewInt(int64(r+1)))
				k.vars[next] = v
				layout(d+1, v, r+1, child)
			}
		}
		k.end[i] = next
	}
	layout(0, 0, 0, big.NewInt(1))

	// Σ_s w_s·Π a_s[v_i] per node. prefix[d] holds the current path's
	// reduced product at depth d; a leaf's product is summed unreduced.
	sums := make([]big.Int, nodes)
	prefix := make([]big.Int, p+1)
	var prod big.Int
	for s, row := range rows {
		prefix[0].Set(weights[s])
		sums[0].Add(&sums[0], weights[s])
		for i := 1; i < nodes; i++ {
			d := depth[i]
			prod.Mul(&prefix[d-1], row[k.vars[i]])
			sums[i].Add(&sums[i], &prod)
			if d < p {
				prefix[d].Mod(&prod, k.mod)
			}
		}
	}

	b0Pow := make([]*big.Int, p+1) // b0Pow[i] = b0^i mod P
	b0Pow[0] = big.NewInt(1)
	for i := 1; i <= p; i++ {
		b0Pow[i] = f.Mul(b0Pow[i-1], b0)
	}
	for i := range k.coeffs {
		c := f.Mul(f.Reduce(&sums[i]), k.coeffs[i])
		k.coeffs[i] = f.Mul(c, b0Pow[p-depth[i]])
	}
	k.coeffs[0] = f.Add(k.coeffs[0], bias)

	if f.SupportsLimb() {
		k.lcoeffs = make([]limb.Element, nodes)
		for i, c := range k.coeffs {
			if err := k.lcoeffs[i].SetBig(c); err != nil {
				return nil, fmt.Errorf("mvpoly: limb-encode coefficient %d: %w", i, err)
			}
		}
	}
	return k, nil
}

// NumVars returns the arity n.
func (k *KernelSum) NumVars() int { return k.nvars }

// NumNodes returns the trie's node count, C(n+p, p).
func (k *KernelSum) NumNodes() int { return len(k.coeffs) }

// Eval evaluates the kernel sum at a field point. Its only allocations are
// one accumulator per trie level and a product, made once per call.
func (k *KernelSum) Eval(z field.Vec) (*big.Int, error) {
	if len(z) != k.nvars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrArity, len(z), k.nvars)
	}
	acc := make([]big.Int, k.degree+1)
	var prod big.Int
	k.evalNode(0, z, acc, &prod)
	return &acc[0], nil
}

// evalNode sets acc[0] to the value of inner node i; acc[1:] is scratch
// for the levels below it.
func (k *KernelSum) evalNode(i int, z field.Vec, acc []big.Int, prod *big.Int) {
	a := &acc[0]
	a.Set(k.coeffs[i])
	for j := i + 1; j < k.end[i]; j = k.end[j] {
		c := k.coeffs[j]
		if k.end[j] != j+1 {
			k.evalNode(j, z, acc[1:], prod)
			c = &acc[1]
		}
		a.Add(a, prod.Mul(z[k.vars[j]], c))
	}
	a.Mod(a, k.mod)
}

// EvalLimb evaluates the kernel sum at a limb point (the
// ompe.LimbEvaluator contract) without allocating. Only valid when the
// field is 2^255−19.
func (k *KernelSum) EvalLimb(z []limb.Element, out *limb.Element) error {
	if k.lcoeffs == nil {
		return fmt.Errorf("mvpoly: limb evaluation requires the 2^255−19 field")
	}
	if len(z) != k.nvars {
		return fmt.Errorf("%w: got %d, want %d", ErrArity, len(z), k.nvars)
	}
	v := k.evalNodeLimb(0, z)
	out.Set(&v)
	return nil
}

func (k *KernelSum) evalNodeLimb(i int, z []limb.Element) limb.Element {
	acc := k.lcoeffs[i]
	var t limb.Element
	for j := i + 1; j < k.end[i]; j = k.end[j] {
		if k.end[j] == j+1 {
			t.Mul(&z[k.vars[j]], &k.lcoeffs[j])
		} else {
			c := k.evalNodeLimb(j, z)
			t.Mul(&z[k.vars[j]], &c)
		}
		acc.Add(&acc, &t)
	}
	return acc
}
