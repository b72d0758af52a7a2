package mvpoly_test

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/mvpoly"
)

// kernelFormRef is the reference the trie is checked against: the kernel
// form Σ_s w_s·(a_s·z + b0)^p + bias computed term by term, one dot
// product and p multiplications per row.
func kernelFormRef(f *field.Field, weights []*big.Int, rows []field.Vec, b0 *big.Int, p int, bias *big.Int, z field.Vec) *big.Int {
	acc := new(big.Int).Set(bias)
	for s, row := range rows {
		inner, err := f.Dot(row, z)
		if err != nil {
			panic(err)
		}
		inner = f.Add(inner, b0)
		pow := f.One()
		for i := 0; i < p; i++ {
			pow = f.Mul(pow, inner)
		}
		acc = f.Add(acc, f.Mul(weights[s], pow))
	}
	return acc
}

// randKernel draws a kernel sum's inputs uniformly from the whole field.
func randKernel(t *testing.T, f *field.Field, rng io.Reader, n, rows int, zeroB0 bool) ([]*big.Int, []field.Vec, *big.Int, *big.Int) {
	t.Helper()
	weights, err := f.RandVec(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]field.Vec, rows)
	for s := range a {
		if a[s], err = f.RandVec(rng, n); err != nil {
			t.Fatal(err)
		}
	}
	b0 := f.Zero()
	if !zeroB0 {
		if b0, err = f.Rand(rng); err != nil {
			t.Fatal(err)
		}
	}
	bias, err := f.Rand(rng)
	if err != nil {
		t.Fatal(err)
	}
	return weights, a, b0, bias
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

func limbPoint(t *testing.T, z field.Vec) []limb.Element {
	t.Helper()
	out := make([]limb.Element, len(z))
	for i, x := range z {
		if err := out[i].SetBig(x); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestKernelSumMatchesKernelForm compares the trie with the kernel form on
// uniform full-field points, over both fields the classifier uses.
func TestKernelSumMatchesKernelForm(t *testing.T) {
	f521, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name string
		f    *field.Field
	}{{"p521", f521}, {"p25519", field.Default()}}
	seed := seededReader(30)
	rng := &seed
	for _, fc := range fields {
		for _, p := range []int{1, 2, 3, 4} {
			for _, zeroB0 := range []bool{true, false} {
				for _, n := range []int{1, 2, 8} {
					for _, rows := range []int{1, 218} {
						name := fmt.Sprintf("%s/p%d/b0zero=%v/n%d/S%d", fc.name, p, zeroB0, n, rows)
						t.Run(name, func(t *testing.T) {
							f := fc.f
							weights, a, b0, bias := randKernel(t, f, rng, n, rows, zeroB0)
							ks, err := mvpoly.NewKernelSum(f, weights, a, b0, p, bias)
							if err != nil {
								t.Fatal(err)
							}
							if want := mvpoly.KernelSumNodes(n, p); int64(ks.NumNodes()) != want.Int64() {
								t.Fatalf("%d nodes, want C(n+p, p) = %v", ks.NumNodes(), want)
							}
							for trial := 0; trial < 8; trial++ {
								z, err := f.RandVec(rng, n)
								if err != nil {
									t.Fatal(err)
								}
								want := kernelFormRef(f, weights, a, b0, p, bias, z)
								got, err := ks.Eval(z)
								if err != nil {
									t.Fatal(err)
								}
								if got.Cmp(want) != 0 {
									t.Fatalf("Eval = %v, kernel form %v", got, want)
								}
								if !f.SupportsLimb() {
									continue
								}
								var out limb.Element
								if err := ks.EvalLimb(limbPoint(t, z), &out); err != nil {
									t.Fatal(err)
								}
								if out.ToBig().Cmp(want) != 0 {
									t.Fatalf("EvalLimb = %v, kernel form %v", out.ToBig(), want)
								}
							}
						})
					}
				}
			}
		}
	}
}

func TestKernelSumValidation(t *testing.T) {
	f := fld()
	one := []*big.Int{f.One()}
	row := []field.Vec{{f.One(), f.One()}}
	if _, err := mvpoly.NewKernelSum(f, one, row, f.Zero(), 0, f.Zero()); !errors.Is(err, mvpoly.ErrBadDegree) {
		t.Fatalf("degree 0: %v", err)
	}
	if _, err := mvpoly.NewKernelSum(f, []*big.Int{f.One(), f.One()}, row, f.Zero(), 2, f.Zero()); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if _, err := mvpoly.NewKernelSum(f, nil, nil, f.Zero(), 2, f.Zero()); err == nil {
		t.Fatal("empty kernel sum accepted")
	}
	ragged := []field.Vec{{f.One(), f.One()}, {f.One()}}
	if _, err := mvpoly.NewKernelSum(f, []*big.Int{f.One(), f.One()}, ragged, f.Zero(), 2, f.Zero()); !errors.Is(err, mvpoly.ErrArity) {
		t.Fatalf("ragged rows: %v", err)
	}
	if _, err := mvpoly.NewKernelSum(f, one, []field.Vec{make(field.Vec, 500)}, f.Zero(), 9, f.Zero()); err == nil {
		t.Fatal("a trie of C(509, 9) nodes was accepted")
	}

	ks, err := mvpoly.NewKernelSum(f, one, row, f.One(), 3, f.Zero())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Eval(field.Vec{f.One()}); !errors.Is(err, mvpoly.ErrArity) {
		t.Fatalf("Eval at the wrong arity: %v", err)
	}
	var out limb.Element
	if err := ks.EvalLimb(make([]limb.Element, 3), &out); !errors.Is(err, mvpoly.ErrArity) {
		t.Fatalf("EvalLimb at the wrong arity: %v", err)
	}

	f521, err := field.Mersenne(field.MersenneExp521)
	if err != nil {
		t.Fatal(err)
	}
	big521, err := mvpoly.NewKernelSum(f521, one, row, f.One(), 3, f.Zero())
	if err != nil {
		t.Fatal(err)
	}
	if err := big521.EvalLimb(make([]limb.Element, 2), &out); err == nil {
		t.Fatal("EvalLimb over 2^521−1 succeeded")
	}
}

// TestKernelSumConcurrentEval evaluates one trie from several goroutines
// at once; run under -race it checks that evaluation shares no scratch.
func TestKernelSumConcurrentEval(t *testing.T) {
	f := fld()
	seed := seededReader(31)
	rng := &seed
	weights, a, b0, bias := randKernel(t, f, rng, 8, 40, false)
	ks, err := mvpoly.NewKernelSum(f, weights, a, b0, 3, bias)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]field.Vec, 16)
	wants := make([]*big.Int, len(points))
	for i := range points {
		if points[i], err = f.RandVec(rng, 8); err != nil {
			t.Fatal(err)
		}
		wants[i] = kernelFormRef(f, weights, a, b0, 3, bias, points[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (w + r) % len(points)
				got, err := ks.Eval(points[i])
				if err != nil || got.Cmp(wants[i]) != 0 {
					t.Errorf("worker %d point %d: Eval = %v, %v; want %v", w, i, got, err, wants[i])
				}
				z := make([]limb.Element, len(points[i]))
				for j, x := range points[i] {
					_ = z[j].SetBig(x) // canonical by construction
				}
				var out limb.Element
				if err := ks.EvalLimb(z, &out); err != nil || out.ToBig().Cmp(wants[i]) != 0 {
					t.Errorf("worker %d point %d: EvalLimb = %v, %v; want %v", w, i, out.ToBig(), err, wants[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
