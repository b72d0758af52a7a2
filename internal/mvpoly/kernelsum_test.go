package mvpoly_test

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/fixedpoint"
	"repro/internal/mvpoly"
	"repro/internal/svm"
)

// kernelFormRef is the reference both forms are checked against: the sum
// Σ_s Σ_j c_{s,j}·(a_s·z + b0)^j + bias computed term by term, each power
// of the row's linear form built up by repeated multiplication.
func kernelFormRef(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0, bias *big.Int, z field.Vec) *big.Int {
	acc := new(big.Int).Set(bias)
	for s, row := range rows {
		inner, err := f.Dot(row, z)
		if err != nil {
			panic(err)
		}
		inner = f.Add(inner, b0)
		pow := f.One()
		for _, c := range coeffs[s] {
			acc = f.Add(acc, f.Mul(c, pow))
			pow = f.Mul(pow, inner)
		}
	}
	return acc
}

// Coefficient shapes the callers pass: a pure power c_{s,p} (polynomial
// kernels, linear, §V-C), odd powers only (the Taylor-truncated sigmoid)
// and every power.
var coeffShapes = []string{"pure", "odd", "dense"}

// kernelInputs is one kernel sum's constants.
type kernelInputs struct {
	coeffs   [][]*big.Int
	rows     []field.Vec
	b0, bias *big.Int
}

// randKernel draws a kernel sum's inputs uniformly from the whole field,
// with the zero coefficients the shape asks for.
func randKernel(t testing.TB, f *field.Field, rng io.Reader, n, rows, p int, shape string, zeroB0 bool) kernelInputs {
	t.Helper()
	in := kernelInputs{coeffs: make([][]*big.Int, rows), rows: make([]field.Vec, rows), b0: f.Zero()}
	var err error
	for s := range in.rows {
		if in.rows[s], err = f.RandVec(rng, n); err != nil {
			t.Fatal(err)
		}
		if in.coeffs[s], err = f.RandVec(rng, p+1); err != nil {
			t.Fatal(err)
		}
		for j := range in.coeffs[s] {
			if (shape == "pure" && j < p) || (shape == "odd" && j%2 == 0) {
				in.coeffs[s][j] = f.Zero()
			}
		}
	}
	if !zeroB0 {
		if in.b0, err = f.Rand(rng); err != nil {
			t.Fatal(err)
		}
	}
	if in.bias, err = f.Rand(rng); err != nil {
		t.Fatal(err)
	}
	return in
}

// bothForms builds the trie and the kernel form of one sum.
func bothForms(t testing.TB, f *field.Field, in kernelInputs, p int) (trie, kernelForm *mvpoly.KernelSum) {
	t.Helper()
	trie, err := mvpoly.NewKernelSumForm(f, in.coeffs, in.rows, in.b0, p, in.bias, true)
	if err != nil {
		t.Fatal(err)
	}
	kernelForm, err = mvpoly.NewKernelSumForm(f, in.coeffs, in.rows, in.b0, p, in.bias, false)
	if err != nil {
		t.Fatal(err)
	}
	if !trie.Expanded() || kernelForm.Expanded() {
		t.Fatalf("forced forms report Expanded %v, %v", trie.Expanded(), kernelForm.Expanded())
	}
	return trie, kernelForm
}

// checkAgainstRef evaluates every sum at uniform full-field points, on
// math/big and, over 2^255−19, on limbs, against kernelFormRef.
func checkAgainstRef(t *testing.T, f *field.Field, rng io.Reader, in kernelInputs, points int, sums ...*mvpoly.KernelSum) {
	t.Helper()
	n := len(in.rows[0])
	for trial := 0; trial < points; trial++ {
		z, err := f.RandVec(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		want := kernelFormRef(f, in.coeffs, in.rows, in.b0, in.bias, z)
		for _, ks := range sums {
			got, err := ks.Eval(z)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("Eval (expanded %v) = %v, reference %v", ks.Expanded(), got, want)
			}
			if !f.SupportsLimb() {
				continue
			}
			var out limb.Element
			if err := ks.EvalLimb(limbPoint(t, z), &out); err != nil {
				t.Fatal(err)
			}
			if out.ToBig().Cmp(want) != 0 {
				t.Fatalf("EvalLimb (expanded %v) = %v, reference %v", ks.Expanded(), out.ToBig(), want)
			}
		}
	}
}

// seededReader is a deterministic io.Reader for drawing field elements.
type seededReader uint64

func (s *seededReader) Read(p []byte) (int, error) {
	r := rand.New(rand.NewPCG(uint64(*s), 0x6b65726e656c))
	for i := range p {
		p[i] = byte(r.Uint32())
	}
	*s++
	return len(p), nil
}

func limbPoint(t testing.TB, z field.Vec) []limb.Element {
	t.Helper()
	out := make([]limb.Element, len(z))
	for i, x := range z {
		if err := out[i].SetBig(x); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func field521(t testing.TB) *field.Field {
	t.Helper()
	f, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestKernelSumMatchesKernelForm compares both forms, and the form the
// size rule picks, with the reference on uniform full-field points, over
// both fields the classifier uses, for every coefficient shape.
func TestKernelSumMatchesKernelForm(t *testing.T) {
	fields := []struct {
		name string
		f    *field.Field
	}{{"p521", field521(t)}, {"p25519", field.Default()}}
	seed := seededReader(30)
	rng := &seed
	for _, fc := range fields {
		for p := 1; p <= 5; p++ {
			for _, zeroB0 := range []bool{true, false} {
				for _, n := range []int{1, 2, 8} {
					for _, rows := range []int{1, 218} {
						name := fmt.Sprintf("%s/p%d/b0zero=%v/n%d/S%d", fc.name, p, zeroB0, n, rows)
						t.Run(name, func(t *testing.T) {
							for _, shape := range coeffShapes {
								t.Run(shape, func(t *testing.T) {
									f := fc.f
									in := randKernel(t, f, rng, n, rows, p, shape, zeroB0)
									trie, kernelForm := bothForms(t, f, in, p)
									auto, err := mvpoly.NewKernelSum(f, in.coeffs, in.rows, in.b0, p, in.bias)
									if err != nil {
										t.Fatal(err)
									}
									if auto.Expanded() != mvpoly.ExpandCheaper(n, p, rows) {
										t.Fatalf("NewKernelSum expanded %v, size rule says %v", auto.Expanded(), !auto.Expanded())
									}
									checkAgainstRef(t, f, rng, in, 4, trie, kernelForm, auto)
								})
							}
						})
					}
				}
			}
		}
	}
}

// TestPolyDirectFormsAgree checks, at the shapes of the direct-mode
// polynomial models classify's transcript test serves, that the size rule
// picks the trie and that both forms give the same residue at uniform
// full-field points.
func TestPolyDirectFormsAgree(t *testing.T) {
	cases := []struct {
		name          string
		f             *field.Field
		n, p, numRows int
		zeroB0        bool
	}{
		{"cubic/big521", field521(t), 8, 3, 50, true},
		{"cubic/limb", field.Default(), 8, 3, 50, true},
		{"quadratic-b0/limb", field.Default(), 8, 2, 38, false},
	}
	seed := seededReader(32)
	rng := &seed
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !mvpoly.ExpandCheaper(tc.n, tc.p, tc.numRows) {
				t.Fatalf("size rule keeps the kernel form for n=%d p=%d |S|=%d", tc.n, tc.p, tc.numRows)
			}
			in := randKernel(t, tc.f, rng, tc.n, tc.numRows, tc.p, "pure", tc.zeroB0)
			trie, kernelForm := bothForms(t, tc.f, in, tc.p)
			checkAgainstRef(t, tc.f, rng, in, 20, trie, kernelForm)
		})
	}
}

// TestKernelSumSizeRule pins which form the size rule picks,
// C(n+p, p) ≤ |S|·(n+p) under the node cap, at the shapes the callers
// build.
func TestKernelSumSizeRule(t *testing.T) {
	cases := []struct {
		name          string
		n, p, numRows int
		expand        bool
	}{
		{"served-cubic", 8, 3, 218, true},
		{"cubic-boundary", 8, 3, 15, true},
		{"cubic-below-boundary", 8, 3, 14, false},
		{"similarity-centroid", 8, 3, 1, false},
		{"sigmoid-T3", 8, 5, 44, false},
		{"linear-n8", 8, 1, 1, true},
		{"linear-n500", 500, 1, 1, true},
		{"madelon-cubic", 500, 3, 40, false},
		// C(503, 3) ≈ 2.1·10⁷ ≤ |S|·(n+p) but above the 2^24 node cap.
		{"madelon-cubic-over-cap", 500, 3, 100000, false},
	}
	for _, tc := range cases {
		if got := mvpoly.ExpandCheaper(tc.n, tc.p, tc.numRows); got != tc.expand {
			t.Errorf("%s: n=%d p=%d |S|=%d: expand %v, want %v", tc.name, tc.n, tc.p, tc.numRows, got, tc.expand)
		}
	}
}

func TestKernelSumValidation(t *testing.T) {
	f := fld()
	zero, one := f.Zero(), f.One()
	cubic := [][]*big.Int{{zero, zero, zero, one}}
	row := []field.Vec{{one, one}}
	if _, err := mvpoly.NewKernelSum(f, [][]*big.Int{{zero}}, row, zero, 0, zero); !errors.Is(err, mvpoly.ErrBadDegree) {
		t.Fatalf("degree 0: %v", err)
	}
	if _, err := mvpoly.NewKernelSum(f, [][]*big.Int{cubic[0], cubic[0]}, row, zero, 3, zero); err == nil {
		t.Fatal("more coefficient vectors than rows accepted")
	}
	if _, err := mvpoly.NewKernelSum(f, nil, nil, zero, 2, zero); err == nil {
		t.Fatal("empty kernel sum accepted")
	}
	if _, err := mvpoly.NewKernelSum(f, [][]*big.Int{{zero, zero, zero, zero, one}}, row, zero, 3, zero); err == nil {
		t.Fatal("coefficient vector longer than p+1 accepted")
	}
	if _, err := mvpoly.NewKernelSum(f, [][]*big.Int{{zero, one}}, row, zero, 3, zero); err == nil {
		t.Fatal("coefficient vector shorter than p+1 accepted")
	}
	ragged := []field.Vec{{one, one}, {one}}
	if _, err := mvpoly.NewKernelSum(f, [][]*big.Int{cubic[0], cubic[0]}, ragged, zero, 3, zero); !errors.Is(err, mvpoly.ErrArity) {
		t.Fatalf("ragged rows: %v", err)
	}
	nonic := [][]*big.Int{make([]*big.Int, 10)}
	for j := range nonic[0] {
		nonic[0][j] = one
	}
	if _, err := mvpoly.NewKernelSumForm(f, nonic, []field.Vec{make(field.Vec, 500)}, zero, 9, zero, true); err == nil {
		t.Fatal("a trie of C(509, 9) nodes was accepted")
	}

	f521 := field521(t)
	for _, expand := range []bool{true, false} {
		ks, err := mvpoly.NewKernelSumForm(f, cubic, row, one, 3, zero, expand)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ks.Eval(field.Vec{one}); !errors.Is(err, mvpoly.ErrArity) {
			t.Fatalf("expanded %v: Eval at the wrong arity: %v", expand, err)
		}
		var out limb.Element
		if err := ks.EvalLimb(make([]limb.Element, 3), &out); !errors.Is(err, mvpoly.ErrArity) {
			t.Fatalf("expanded %v: EvalLimb at the wrong arity: %v", expand, err)
		}
		big521, err := mvpoly.NewKernelSumForm(f521, cubic, row, one, 3, zero, expand)
		if err != nil {
			t.Fatal(err)
		}
		if err := big521.EvalLimb(make([]limb.Element, 2), &out); err == nil {
			t.Fatalf("expanded %v: EvalLimb over 2^521−1 succeeded", expand)
		}
	}
}

// TestKernelSumConcurrentEval evaluates each form from several goroutines
// at once; run under -race it checks that evaluation shares no scratch.
func TestKernelSumConcurrentEval(t *testing.T) {
	f := fld()
	seed := seededReader(31)
	rng := &seed
	in := randKernel(t, f, rng, 8, 40, 3, "dense", false)
	trie, kernelForm := bothForms(t, f, in, 3)
	points := make([]field.Vec, 16)
	wants := make([]*big.Int, len(points))
	var err error
	for i := range points {
		if points[i], err = f.RandVec(rng, 8); err != nil {
			t.Fatal(err)
		}
		wants[i] = kernelFormRef(f, in.coeffs, in.rows, in.b0, in.bias, points[i])
	}
	for _, ks := range []*mvpoly.KernelSum{trie, kernelForm} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 8; r++ {
					i := (w + r) % len(points)
					got, err := ks.Eval(points[i])
					if err != nil || got.Cmp(wants[i]) != 0 {
						t.Errorf("expanded %v worker %d point %d: Eval = %v, %v; want %v", ks.Expanded(), w, i, got, err, wants[i])
					}
					z := make([]limb.Element, len(points[i]))
					for j, x := range points[i] {
						_ = z[j].SetBig(x) // canonical by construction
					}
					var out limb.Element
					if err := ks.EvalLimb(z, &out); err != nil || out.ToBig().Cmp(wants[i]) != 0 {
						t.Errorf("expanded %v worker %d point %d: EvalLimb = %v, %v; want %v", ks.Expanded(), w, i, out.ToBig(), err, wants[i])
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// servedCubic encodes the decision function of the benchmark's served
// model, the paper's cubic trained on the full synthetic diabetes set
// (218 support vectors, n = 8), the way the classifier's direct mode
// does before rescaling: rows a0·x_s and c_{s,3} = αy_s at the base
// scale, b0 = 0, the bias at S^7.
func servedCubic(b *testing.B, codec *fixedpoint.Codec) kernelInputs {
	b.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: spec.PolyC})
	if err != nil {
		b.Fatal(err)
	}
	if len(m.SupportVectors) != 218 {
		b.Fatalf("served model has %d support vectors, want 218", len(m.SupportVectors))
	}
	f := codec.Field()
	in := kernelInputs{coeffs: make([][]*big.Int, len(m.AlphaY)), rows: make([]field.Vec, len(m.AlphaY)), b0: f.Zero()}
	for s, sv := range m.SupportVectors {
		scaled := make([]float64, len(sv))
		for j, v := range sv {
			scaled[j] = m.Kernel.A0 * v
		}
		if in.rows[s], err = codec.EncodeVec(scaled); err != nil {
			b.Fatal(err)
		}
		alpha, err := codec.EncodeAtScale(m.AlphaY[s], codec.Scale())
		if err != nil {
			b.Fatal(err)
		}
		in.coeffs[s] = []*big.Int{f.Zero(), f.Zero(), f.Zero(), alpha}
	}
	if in.bias, err = codec.EncodeAtScale(m.Bias, codec.ScalePow(7)); err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkKernelSumEval times one evaluation at a uniform field point,
// in both forms: the served cubic on 2^521−1 at 24 fractional bits, where
// it ran before per-degree scales, and on 2^255−19 limbs, where the
// classifier's rescaled trie runs it now (an evaluation's cost does not
// depend on the scale), and a linear model w·z + b at n = 8 and n = 500
// on 2^255−19, on math/big and limbs.
func BenchmarkKernelSumEval(b *testing.B) {
	type config struct {
		name string
		f    *field.Field
		in   kernelInputs
		p    int
		limb bool // evaluate with EvalLimb
	}
	var configs []config
	for _, c := range []struct {
		name     string
		f        *field.Field
		fracBits uint
	}{{"cubic/big521", field521(b), 24}, {"cubic/limb", field.Default(), 16}} {
		codec, err := fixedpoint.NewCodec(c.f, c.fracBits)
		if err != nil {
			b.Fatal(err)
		}
		configs = append(configs, config{c.name, c.f, servedCubic(b, codec), 3, c.f.SupportsLimb()})
	}
	seed := seededReader(33)
	for _, n := range []int{8, 500} {
		f := field.Default()
		in := randKernel(b, f, &seed, n, 1, 1, "pure", true)
		configs = append(configs,
			config{fmt.Sprintf("linear-n%d/big", n), f, in, 1, false},
			config{fmt.Sprintf("linear-n%d/limb", n), f, in, 1, true})
	}
	for _, cfg := range configs {
		trie, kernelForm := bothForms(b, cfg.f, cfg.in, cfg.p)
		z, err := cfg.f.RandVec(&seed, len(cfg.in.rows[0]))
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name string
			ks   *mvpoly.KernelSum
		}{{"kernel", kernelForm}, {"trie", trie}} {
			b.Run(fmt.Sprintf("%s/%s", form.name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				if cfg.limb {
					lz := limbPoint(b, z)
					var out limb.Element
					for i := 0; i < b.N; i++ {
						if err := form.ks.EvalLimb(lz, &out); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				for i := 0; i < b.N; i++ {
					out, err := form.ks.Eval(z)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = out
				}
			})
		}
	}
}

var benchSink *big.Int

// smallInt draws a field element whose centered lift is uniform in
// [−2^bits, 2^bits].
func smallInt(f *field.Field, r *rand.Rand, bits uint) *big.Int {
	v := big.NewInt(r.Int64N(1<<(bits+1)+1) - 1<<bits)
	return f.Reduce(v)
}

// TestRescaledKernelSumRoundsEachNode checks NewRescaledKernelSum against
// the sum computed exactly over ℤ on centered lifts: at every point the
// rescaled value, less its bias and times 2^shift, is within 2^(shift−1)
// per monomial, times the monomial's size, of the exact value. At shift 0
// it is the residue NewKernelSum gives.
func TestRescaledKernelSumRoundsEachNode(t *testing.T) {
	const aBits, zBits, shift = 20, 24, 40
	r := rand.New(rand.NewPCG(34, 0))
	for _, fc := range []struct {
		name string
		f    *field.Field
	}{{"p521", field521(t)}, {"p25519", field.Default()}} {
		for p := 1; p <= 3; p++ {
			for _, shape := range coeffShapes {
				t.Run(fmt.Sprintf("%s/p%d/%s", fc.name, p, shape), func(t *testing.T) {
					f := fc.f
					const n, numRows = 4, 7
					in := kernelInputs{coeffs: make([][]*big.Int, numRows), rows: make([]field.Vec, numRows), b0: smallInt(f, r, aBits), bias: smallInt(f, r, aBits)}
					for s := range in.rows {
						in.rows[s] = make(field.Vec, n)
						for j := range in.rows[s] {
							in.rows[s][j] = smallInt(f, r, aBits)
						}
						in.coeffs[s] = make([]*big.Int, p+1)
						for j := range in.coeffs[s] {
							in.coeffs[s][j] = smallInt(f, r, aBits)
							if (shape == "pure" && j < p) || (shape == "odd" && j%2 == 0) {
								in.coeffs[s][j] = f.Zero()
							}
						}
					}
					rescaled, err := mvpoly.NewRescaledKernelSum(f, in.coeffs, in.rows, in.b0, p, shift, in.bias)
					if err != nil {
						t.Fatal(err)
					}
					unscaled, err := mvpoly.NewRescaledKernelSum(f, in.coeffs, in.rows, in.b0, p, 0, in.bias)
					if err != nil {
						t.Fatal(err)
					}
					if !rescaled.Expanded() || !unscaled.Expanded() {
						t.Fatal("rescaled sum is not the trie")
					}
					// Σ_e |z^e| ≤ C(n+p, p)·2^(p·zBits) for |z_i| ≤ 2^zBits.
					bound := new(big.Int).Lsh(mvpoly.KernelSumNodes(n, p), uint(p)*zBits+shift-1)
					for trial := 0; trial < 20; trial++ {
						z := make(field.Vec, n)
						for i := range z {
							z[i] = smallInt(f, r, zBits)
						}
						got, err := unscaled.Eval(z)
						if err != nil {
							t.Fatal(err)
						}
						if want := kernelFormRef(f, in.coeffs, in.rows, in.b0, in.bias, z); got.Cmp(want) != 0 {
							t.Fatalf("shift 0: Eval = %v, reference %v", got, want)
						}
						exact := new(big.Int)
						for s, row := range in.rows {
							u := f.Centered(in.b0)
							for i, a := range row {
								u.Add(u, new(big.Int).Mul(f.Centered(a), f.Centered(z[i])))
							}
							pow := big.NewInt(1)
							for _, c := range in.coeffs[s] {
								exact.Add(exact, new(big.Int).Mul(f.Centered(c), pow))
								pow.Mul(pow, u)
							}
						}
						got, err = rescaled.Eval(z)
						if err != nil {
							t.Fatal(err)
						}
						var out limb.Element
						if f.SupportsLimb() {
							if err := rescaled.EvalLimb(limbPoint(t, z), &out); err != nil {
								t.Fatal(err)
							}
							if out.ToBig().Cmp(got) != 0 {
								t.Fatalf("EvalLimb = %v, Eval %v", out.ToBig(), got)
							}
						}
						diff := f.Centered(f.Sub(got, in.bias))
						diff.Lsh(diff, shift)
						diff.Sub(diff, exact)
						if diff.CmpAbs(bound) > 0 {
							t.Fatalf("point %d: 2^shift·(rescaled − bias) is %v from the exact sum, bound %v", trial, diff, bound)
						}
					}
				})
			}
		}
	}
	// Past the cap the rescaled trie is refused, whatever |S| is.
	const n, p = 45, 3
	if mvpoly.Rescalable(n, p) {
		t.Fatalf("a cubic over %d variables is under the rescaled cap", n)
	}
	f := fld()
	row := []field.Vec{make(field.Vec, n)}
	for j := range row[0] {
		row[0][j] = f.One()
	}
	if _, err := mvpoly.NewRescaledKernelSum(f, [][]*big.Int{{f.Zero(), f.Zero(), f.Zero(), f.One()}}, row, f.Zero(), p, 8, f.Zero()); err == nil {
		t.Fatalf("a rescaled trie of C(%d, %d) nodes was accepted", n+p, p)
	}
}
