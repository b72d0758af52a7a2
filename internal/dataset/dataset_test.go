package dataset_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestCatalogSpecsGenerate(t *testing.T) {
	for _, spec := range dataset.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// Shrink for test speed; the structure checks don't need bulk.
			spec.TrainSize = 50
			spec.TestSize = 30
			train, test, err := dataset.Generate(spec, dataset.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := train.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := test.Validate(); err != nil {
				t.Fatal(err)
			}
			if train.Dim() != spec.Dim || train.Len() != 50 || test.Len() != 30 {
				t.Fatalf("shape: dim=%d train=%d test=%d", train.Dim(), train.Len(), test.Len())
			}
			for _, row := range train.X {
				for _, v := range row {
					if v < -1 || v > 1 {
						t.Fatalf("feature %v outside [-1,1]", v)
					}
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 20, 10
	a1, b1, err := dataset.Generate(spec, dataset.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := dataset.Generate(spec, dataset.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.X {
		for j := range a1.X[i] {
			if a1.X[i][j] != a2.X[i][j] {
				t.Fatal("same seed must reproduce identical data")
			}
		}
		if a1.Y[i] != a2.Y[i] {
			t.Fatal("labels must be deterministic")
		}
	}
	if b1.Len() != b2.Len() {
		t.Fatal("test split size differs")
	}
	a3, _, err := dataset.Generate(spec, dataset.Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1.X {
		if a1.X[i][0] != a3.X[i][0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSpecByNameUnknown(t *testing.T) {
	if _, err := dataset.SpecByName("nonexistent"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestBothClassesPresent(t *testing.T) {
	for _, name := range []string{"diabetes", "a1a", "splice", "cod-rna"} {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.TrainSize, spec.TestSize = 100, 10
		train, _, err := dataset.Generate(spec, dataset.Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		pos, neg := 0, 0
		for _, y := range train.Y {
			if y > 0 {
				pos++
			} else {
				neg++
			}
		}
		if pos == 0 || neg == 0 {
			t.Fatalf("%s: classes %d/%d", name, pos, neg)
		}
	}
}

func TestSlice(t *testing.T) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 40, 10
	d, _, err := dataset.Generate(spec, dataset.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Slice(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 || s.Y[0] != d.Y[10] {
		t.Fatalf("slice has %d rows, first label %d", s.Len(), s.Y[0])
	}
	for _, r := range [][2]int{{-1, 5}, {5, 41}, {30, 10}} {
		if _, err := d.Slice(r[0], r[1]); err == nil {
			t.Fatalf("Slice(%d, %d) should fail", r[0], r[1])
		}
	}
	// Slices must be deep copies.
	s.X[0][0] = 99
	if d.X[10][0] == 99 {
		t.Fatal("Slice must deep-copy rows")
	}
}

func TestGenerateShiftedSubsets(t *testing.T) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	subs, err := dataset.GenerateShiftedSubsets(spec, 3, 50, []float64{0.8, 0.3, 0}, dataset.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("%d subsets", len(subs))
	}
	// The most-shifted subset's mean must be farther from the unshifted
	// subset's mean than the mid-shifted one's.
	meanDist := func(a, b *dataset.Dataset) float64 {
		da, db := colMeans(a), colMeans(b)
		s := 0.0
		for j := range da {
			d := da[j] - db[j]
			s += d * d
		}
		return s
	}
	if meanDist(subs[0], subs[2]) <= meanDist(subs[1], subs[2]) {
		t.Fatal("larger shift should move the subset mean farther")
	}
	if _, err := dataset.GenerateShiftedSubsets(spec, 3, 50, []float64{1, 2}, dataset.Options{}); err == nil {
		t.Fatal("shift count mismatch should fail")
	}
	if _, err := dataset.GenerateShiftedSubsets(spec, 1, 50, []float64{1}, dataset.Options{}); err == nil {
		t.Fatal("k=1 should fail")
	}
}

func colMeans(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Dim())
	for _, row := range d.X {
		for j, v := range row {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(d.Len())
	}
	return out
}

func TestLIBSVMRoundTrip(t *testing.T) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 25, 5
	d, _, err := dataset.Generate(spec, dataset.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, row := range d.X {
		fmt.Fprintf(&buf, "%+d", d.Y[i])
		for j, v := range row {
			if v != 0 {
				fmt.Fprintf(&buf, " %d:%g", j+1, v)
			}
		}
		buf.WriteString("\n")
	}
	parsed, err := dataset.ParseLIBSVM(&buf, "roundtrip", d.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != d.Len() || parsed.Dim() != d.Dim() {
		t.Fatalf("round-trip shape %dx%d", parsed.Len(), parsed.Dim())
	}
	for i := range d.X {
		if parsed.Y[i] != d.Y[i] {
			t.Fatalf("label %d changed", i)
		}
		for j := range d.X[i] {
			diff := parsed.X[i][j] - d.X[i][j]
			if diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("value (%d,%d) changed: %v vs %v", i, j, parsed.X[i][j], d.X[i][j])
			}
		}
	}
}

func TestParseLIBSVMFormats(t *testing.T) {
	input := `+1 1:0.5 3:-0.25
-1 2:1
# comment line

0 1:0.1
2 3:0.9
`
	d, err := dataset.ParseLIBSVM(strings.NewReader(input), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("parsed %d rows", d.Len())
	}
	if d.Dim() != 3 {
		t.Fatalf("inferred dim %d", d.Dim())
	}
	if d.X[0][0] != 0.5 || d.X[0][2] != -0.25 || d.X[0][1] != 0 {
		t.Fatalf("row 0 = %v", d.X[0])
	}
	// 0 and 2 map to the negative class.
	if d.Y[2] != -1 || d.Y[3] != -1 {
		t.Fatalf("labels %v", d.Y)
	}
}

func TestParseLIBSVMErrors(t *testing.T) {
	cases := []string{
		"abc 1:0.5",
		"+1 0:0.5",
		"+1 1:xyz",
		"+1 nocolon",
	}
	for _, in := range cases {
		if _, err := dataset.ParseLIBSVM(strings.NewReader(in), "bad", 0); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
	if _, err := dataset.ParseLIBSVM(strings.NewReader(""), "empty", 0); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := dataset.ParseLIBSVM(strings.NewReader("+1 5:1"), "overdim", 3); err == nil {
		t.Fatal("index beyond declared dim should fail")
	}
}

func TestValidate(t *testing.T) {
	d := &dataset.Dataset{Name: "x", X: [][]float64{{1, 2}}, Y: []int{2}}
	if err := d.Validate(); err == nil {
		t.Fatal("label 2 should fail")
	}
	d = &dataset.Dataset{Name: "x", X: [][]float64{{1, 2}, {3}}, Y: []int{1, -1}}
	if err := d.Validate(); err == nil {
		t.Fatal("ragged rows should fail")
	}
	d = &dataset.Dataset{}
	if err := d.Validate(); err == nil {
		t.Fatal("empty dataset should fail")
	}
}
