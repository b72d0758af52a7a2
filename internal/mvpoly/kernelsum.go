package mvpoly

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
)

// maxKernelSumNodes caps the trie a KernelSum may allocate. The size rule
// never expands past it.
const maxKernelSumNodes = 1 << 24

// MaxRescaledNodes caps the trie NewRescaledKernelSum builds. Callers use
// Rescalable, a rule on the shape (n, p) alone, to decide whether a sum is
// rescaled: a cubic stays under the cap up to n = 44 and a quadratic up to
// n = 179, while a madelon-width cubic (n = 500, C(503, 3) ≈ 2.1·10⁷) is
// far past it. At the cap one limb evaluation is ~16k multiplications.
const MaxRescaledNodes = 1 << 14

// KernelSum is a sum of univariate polynomials of linear forms,
//
//	d(z) = Σ_s Σ_{j=0..p} c_{s,j}·(a_s·z + b0)^j + bias
//
// over a prime field: the SVM decision function of a linear, polynomial
// or Taylor-truncated sigmoid kernel (§IV) and Alice's polynomials in the
// kernel similarity protocol (§V-C) all have this shape.
//
// NewKernelSum holds it in one of two forms of the same element of
// F_P[z], so both give the same residue at every point, and picks the one
// with fewer multiplications per point from the shape alone.
// NewRescaledKernelSum holds the trie with every coefficient divided by a
// power of two and rounded, so a sum can decode at a smaller fixed-point
// scale than its inputs' product.
//
// The trie expands d into its C(n+p, p) monomials of degree ≤ p, stored
// over nondecreasing variable indices in DFS preorder: the node reached
// by the path (v_1 ≤ … ≤ v_d) holds the coefficient of z_{v_1}·…·z_{v_d},
//
//	multinomial(d; e) · Σ_s W_{s,d}·Π_i a_s[v_i]  (mod P),
//	W_{s,d} = Σ_{j≥d} c_{s,j}·C(j, d)·b0^(j−d),
//
// with e the exponent vector of the path, plus bias at the root. The
// node is computed over ℤ on the constants' centered lifts and reduced
// once, which is what lets a rescaled trie round it.
// Evaluation is a nested Horner, node = c + Σ_{v ≥ last} z_v·child_v: one
// multiplication per edge and one reduction per inner node, on limb through
// an unreduced limb.Sum.
//
// The kernel form evaluates the sum row by row: one dot product and a
// Horner pass over c_s per row, |S|·(n+p) multiplications.
//
// A KernelSum is immutable after construction and safe for concurrent
// Eval and EvalLimb.
type KernelSum struct {
	nvars int
	// limb reports that the field is 2^255−19 and the form holds limb
	// copies of its constants.
	limb bool
	form interface {
		eval(z field.Vec) *big.Int
		evalLimb(z []limb.Element) limb.Element
	}
}

// KernelSumNodes returns C(n+p, p), the number of monomials of degree ≤ p
// in n variables and so the node count of a KernelSum's trie.
func KernelSumNodes(n, p int) *big.Int {
	return binomial(n+p, p)
}

// NewKernelSum builds Σ_s Σ_j coeffs[s][j]·(rows[s]·z + b0)^j + bias.
// Every coefficient vector has p+1 entries, indexed by power; every row
// has the same length n ≥ 1; the field elements are used as given.
//
// It expands the trie when that has no more nodes than the kernel form
// spends multiplications, C(n+p, p) ≤ |S|·(n+p), and fits the node cap;
// otherwise it keeps the kernel form. The rule depends only on the shape,
// which also bounds the trie's memory by the inputs'.
func NewKernelSum(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0 *big.Int, p int, bias *big.Int) (*KernelSum, error) {
	return newKernelSum(f, coeffs, rows, b0, p, 0, bias, expandCheaper)
}

// Rescalable reports whether a sum of degree p over n variables fits
// NewRescaledKernelSum's node cap, C(n+p, p) ≤ MaxRescaledNodes.
func Rescalable(n, p int) bool {
	return KernelSumNodes(n, p).Cmp(big.NewInt(MaxRescaledNodes)) <= 0
}

// NewRescaledKernelSum builds the trie NewKernelSum would, except that
// every coefficient but the bias is divided by 2^shift. It reads each
// constant as its centered lift, the integer in (−P/2, P/2] it
// represents, computes each node's coefficient exactly over ℤ, divides it
// by 2^shift rounding to nearest, and reduces it; the bias is added to the
// root as given. Read as centered integers that do not wrap, Eval(z) − bias
// is then within Σ_e |z^e|/2 of 2^−shift times the exact sum without bias,
// Σ_e over the C(n+p, p) monomials. The shape must be Rescalable.
func NewRescaledKernelSum(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0 *big.Int, p int, shift uint, bias *big.Int) (*KernelSum, error) {
	if len(rows) > 0 && p >= 1 && !Rescalable(len(rows[0]), p) {
		return nil, fmt.Errorf("mvpoly: kernel sum of degree %d over %d variables has %v monomials, more than the rescaled cap %d", p, len(rows[0]), KernelSumNodes(len(rows[0]), p), MaxRescaledNodes)
	}
	return newKernelSum(f, coeffs, rows, b0, p, shift, bias, func(int, int, int) bool { return true })
}

// expandCheaper is NewKernelSum's size rule.
func expandCheaper(n, p, numRows int) bool {
	nodes := KernelSumNodes(n, p)
	return nodes.Cmp(big.NewInt(int64(numRows)*int64(n+p))) <= 0 && nodes.Cmp(big.NewInt(maxKernelSumNodes)) <= 0
}

func newKernelSum(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0 *big.Int, p int, shift uint, bias *big.Int, expand func(n, p, numRows int) bool) (*KernelSum, error) {
	if p < 1 {
		return nil, ErrBadDegree
	}
	if len(rows) != len(coeffs) {
		return nil, fmt.Errorf("mvpoly: %d rows but %d coefficient vectors", len(rows), len(coeffs))
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("mvpoly: kernel sum needs at least one non-empty row")
	}
	n := len(rows[0])
	for s, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d components, want %d", ErrArity, s, len(row), n)
		}
		if len(coeffs[s]) != p+1 {
			return nil, fmt.Errorf("mvpoly: row %d has %d coefficients, want p+1 = %d", s, len(coeffs[s]), p+1)
		}
	}
	k := &KernelSum{nvars: n, limb: f.SupportsLimb()}
	var err error
	if expand(n, p, len(rows)) {
		k.form, err = newTrie(f, coeffs, rows, b0, p, shift, bias, k.limb)
	} else {
		k.form, err = newKernelForm(f, coeffs, rows, b0, bias, k.limb)
	}
	if err != nil {
		return nil, err
	}
	return k, nil
}

// NumVars returns the arity n.
func (k *KernelSum) NumVars() int { return k.nvars }

// Expanded reports whether the sum is held as the monomial trie rather
// than the kernel form.
func (k *KernelSum) Expanded() bool {
	_, ok := k.form.(*kernelTrie)
	return ok
}

// Eval evaluates the sum at a field point. Its only allocations are a
// few accumulators, made once per call.
func (k *KernelSum) Eval(z field.Vec) (*big.Int, error) {
	if len(z) != k.nvars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrArity, len(z), k.nvars)
	}
	return k.form.eval(z), nil
}

// EvalLimb evaluates the sum at a limb point (the ompe.LimbEvaluator
// contract) without allocating. Only valid when the field is 2^255−19.
func (k *KernelSum) EvalLimb(z []limb.Element, out *limb.Element) error {
	if !k.limb {
		return fmt.Errorf("mvpoly: limb evaluation requires the 2^255−19 field")
	}
	if len(z) != k.nvars {
		return fmt.Errorf("%w: got %d, want %d", ErrArity, len(z), k.nvars)
	}
	v := k.form.evalLimb(z)
	out.Set(&v)
	return nil
}

// limbVec copies canonical field elements into limb elements.
func limbVec(xs []*big.Int) ([]limb.Element, error) {
	out := make([]limb.Element, len(xs))
	for i, x := range xs {
		if err := out[i].SetBig(x); err != nil {
			return nil, fmt.Errorf("mvpoly: limb-encode constant: %w", err)
		}
	}
	return out, nil
}

// kernelTrie is the expanded form.
type kernelTrie struct {
	mod    *big.Int
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

// newTrie expands the sum with one prefix-product walk of the trie per
// row. It works over ℤ on the constants' centered lifts, summing exact
// products into each node, then divides each node's coefficient by
// 2^shift, rounding to nearest, and reduces it once.
func newTrie(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0 *big.Int, p int, shift uint, bias *big.Int, withLimb bool) (*kernelTrie, error) {
	n := len(rows[0])
	count := KernelSumNodes(n, p)
	if !count.IsInt64() || count.Int64() > maxKernelSumNodes {
		return nil, fmt.Errorf("mvpoly: kernel sum of degree %d over %d variables has %v monomials (max %d)", p, n, count, maxKernelSumNodes)
	}
	nodes := int(count.Int64())
	k := &kernelTrie{
		mod:    f.Modulus(),
		degree: p,
		coeffs: make([]*big.Int, nodes),
		vars:   make([]int, nodes),
		end:    make([]int, nodes),
	}
	depth := make([]int, nodes)

	// Lay out the trie, parking each node's multinomial(d; e) in its
	// coefficient slot. The multinomial grows by (d+1)/(e_v+1) along an
	// edge that raises e_v; the division is exact.
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
				child := new(big.Int).Mul(factor, big.NewInt(int64(d+1)))
				child.Quo(child, big.NewInt(int64(r+1)))
				k.vars[next] = v
				layout(d+1, v, r+1, child)
			}
		}
		k.end[i] = next
	}
	layout(0, 0, 0, big.NewInt(1))

	lrows := make([][]*big.Int, len(rows))
	for s, row := range rows {
		lrows[s] = make([]*big.Int, n)
		for j, a := range row {
			lrows[s][j] = f.Centered(a)
		}
	}
	b0 = f.Centered(b0)
	b0Pow := make([]*big.Int, p+1) // b0Pow[i] = b0^i
	b0Pow[0] = big.NewInt(1)
	for i := 1; i <= p; i++ {
		b0Pow[i] = new(big.Int).Mul(b0Pow[i-1], b0)
	}
	// When every row is a pure power c_{s,p}·(a_s·z + b0)^p, W_{s,d}
	// factors into c_{s,p} times the row-independent depthW[d] =
	// C(p, d)·b0^(p−d), applied once per node after the walk. Otherwise
	// each row carries its own W_{s,d} and depthW is 1.
	pure := true
	for _, c := range coeffs {
		for _, cj := range c[:p] {
			pure = pure && cj.Sign() == 0
		}
	}
	depthW := make([]*big.Int, p+1)
	var rowW [][]*big.Int
	if pure {
		for d := range depthW {
			depthW[d] = new(big.Int).Mul(binomial(p, d), b0Pow[p-d])
		}
	} else {
		rowW = make([][]*big.Int, len(rows))
		var t big.Int
		for s, c := range coeffs {
			rowW[s] = make([]*big.Int, p+1)
			for d := 0; d <= p; d++ {
				w := new(big.Int)
				for j := d; j <= p; j++ {
					t.Mul(f.Centered(c[j]), binomial(j, d))
					w.Add(w, t.Mul(&t, b0Pow[j-d]))
				}
				rowW[s][d] = w
			}
		}
		for d := range depthW {
			depthW[d] = big.NewInt(1)
		}
	}

	// Σ_s W_{s,d}·Π_i a_s[v_i] per node, without depthW. prefix[d] holds
	// the current path's product at depth d, starting from c_{s,p} for
	// pure powers and from 1 otherwise.
	sums := make([]big.Int, nodes)
	prefix := make([]big.Int, p+1)
	var prod big.Int
	for s, row := range lrows {
		if pure {
			prefix[0].Set(f.Centered(coeffs[s][p]))
			sums[0].Add(&sums[0], &prefix[0])
		} else {
			prefix[0].SetInt64(1)
			sums[0].Add(&sums[0], rowW[s][0])
		}
		for i := 1; i < nodes; i++ {
			d := depth[i]
			term := &prod
			if d < p {
				term = &prefix[d]
			}
			term.Mul(&prefix[d-1], row[k.vars[i]])
			if !pure {
				term = prod.Mul(term, rowW[s][d])
			}
			sums[i].Add(&sums[i], term)
		}
	}

	// round(x / 2^shift) = ⌊(x + 2^(shift−1)) / 2^shift⌋; Rsh floors.
	var half big.Int
	if shift > 0 {
		half.Lsh(big.NewInt(1), shift-1)
	}
	for i := range k.coeffs {
		c := &sums[i]
		c.Mul(c, k.coeffs[i])
		c.Mul(c, depthW[depth[i]])
		c.Add(c, &half)
		k.coeffs[i] = f.Reduce(c.Rsh(c, shift))
	}
	k.coeffs[0] = f.Add(k.coeffs[0], bias)

	if withLimb {
		var err error
		if k.lcoeffs, err = limbVec(k.coeffs); err != nil {
			return nil, err
		}
	}
	return k, nil
}

func (k *kernelTrie) eval(z field.Vec) *big.Int {
	acc := make([]big.Int, k.degree+1)
	var prod, q big.Int
	k.evalNode(0, z, acc, &prod, &q)
	return &acc[0]
}

// evalNode sets acc[0] to the value of inner node i; acc[1:] is scratch
// for the levels below it. It reduces with QuoRem into the reused
// quotient q, which on non-negative operands is Mod without its per-call
// allocation.
func (k *kernelTrie) evalNode(i int, z field.Vec, acc []big.Int, prod, q *big.Int) {
	a := &acc[0]
	a.Set(k.coeffs[i])
	for j := i + 1; j < k.end[i]; j = k.end[j] {
		c := k.coeffs[j]
		if k.end[j] != j+1 {
			k.evalNode(j, z, acc[1:], prod, q)
			c = &acc[1]
		}
		a.Add(a, prod.Mul(z[k.vars[j]], c))
	}
	q.QuoRem(a, k.mod, a)
}

func (k *kernelTrie) evalLimb(z []limb.Element) limb.Element {
	return k.evalNodeLimb(0, z)
}

func (k *kernelTrie) evalNodeLimb(i int, z []limb.Element) limb.Element {
	var s limb.Sum
	s.Add(&k.lcoeffs[i])
	for j := i + 1; j < k.end[i]; j = k.end[j] {
		if k.end[j] == j+1 {
			s.MulAdd(&z[k.vars[j]], &k.lcoeffs[j])
		} else {
			c := k.evalNodeLimb(j, z)
			s.MulAdd(&z[k.vars[j]], &c)
		}
	}
	var v limb.Element
	return *s.Reduce(&v)
}

// kernelForm is the row-by-row form. It shares the caller's rows and
// coefficient vectors, which are never written.
type kernelForm struct {
	mod      *big.Int
	rows     []field.Vec
	coeffs   [][]*big.Int
	b0, bias *big.Int
	// Limb copies of the constants when the field is 2^255−19.
	lrows, lcoeffs [][]limb.Element
	lb0, lbias     limb.Element
}

func newKernelForm(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0, bias *big.Int, withLimb bool) (*kernelForm, error) {
	k := &kernelForm{mod: f.Modulus(), rows: rows, coeffs: coeffs, b0: b0, bias: bias}
	if !withLimb {
		return k, nil
	}
	k.lrows = make([][]limb.Element, len(rows))
	k.lcoeffs = make([][]limb.Element, len(rows))
	var err error
	for s := range rows {
		if k.lrows[s], err = limbVec(rows[s]); err != nil {
			return nil, err
		}
		if k.lcoeffs[s], err = limbVec(coeffs[s]); err != nil {
			return nil, err
		}
	}
	if err := k.lb0.SetBig(b0); err != nil {
		return nil, fmt.Errorf("mvpoly: limb-encode b0: %w", err)
	}
	if err := k.lbias.SetBig(bias); err != nil {
		return nil, fmt.Errorf("mvpoly: limb-encode bias: %w", err)
	}
	return k, nil
}

// eval reduces with QuoRem into a reused quotient, which on non-negative
// operands is Mod without its per-call allocation.
func (k *kernelForm) eval(z field.Vec) *big.Int {
	acc := new(big.Int).Set(k.bias)
	var u, h, t, q big.Int
	for s, row := range k.rows {
		t.Set(k.b0)
		for i, a := range row {
			t.Add(&t, h.Mul(a, z[i]))
		}
		q.QuoRem(&t, k.mod, &u)
		c := k.coeffs[s]
		h.Set(c[len(c)-1])
		for j := len(c) - 2; j >= 0; j-- {
			t.Mul(&h, &u)
			t.Add(&t, c[j])
			q.QuoRem(&t, k.mod, &h)
		}
		acc.Add(acc, &h)
	}
	return acc.Mod(acc, k.mod)
}

func (k *kernelForm) evalLimb(z []limb.Element) limb.Element {
	acc := k.lbias
	var u, h limb.Element
	for s, row := range k.lrows {
		var dot limb.Sum
		dot.Add(&k.lb0)
		for i := range row {
			dot.MulAdd(&row[i], &z[i])
		}
		dot.Reduce(&u)
		c := k.lcoeffs[s]
		h = c[len(c)-1]
		for j := len(c) - 2; j >= 0; j-- {
			h.Mul(&h, &u)
			h.Add(&h, &c[j])
		}
		acc.Add(&acc, &h)
	}
	return acc
}
