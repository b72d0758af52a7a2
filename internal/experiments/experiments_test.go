package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/ot"
)

func quickOpts() experiments.Options {
	return experiments.Options{Seed: 1, Group: ot.Group512Test(), Quick: true}
}

func TestTable1Quick(t *testing.T) {
	rows, err := experiments.Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 8 distinct + a1a + a9a in quick mode
		t.Fatalf("%d rows", len(rows))
	}
	byName := make(map[string]experiments.Table1Row, len(rows))
	for _, r := range rows {
		byName[r.Dataset] = r
		if r.LinearAcc < 40 || r.LinearAcc > 100 || r.PolyAcc < 40 || r.PolyAcc > 100 {
			t.Fatalf("%s: implausible accuracies %+v", r.Dataset, r)
		}
	}
	// Headline shape checks from the paper: poly wins big on the
	// engineered-nonlinear sets, linear wins big on cod-rna.
	for _, name := range []string{"splice", "madelon", "german.numer"} {
		r := byName[name]
		if r.PolyAcc-r.LinearAcc < 10 {
			t.Errorf("%s: poly (%.1f) should beat linear (%.1f) decisively", name, r.PolyAcc, r.LinearAcc)
		}
	}
	if r := byName["cod-rna"]; r.LinearAcc-r.PolyAcc < 20 {
		t.Errorf("cod-rna: linear (%.1f) should beat poly (%.1f) decisively", r.LinearAcc, r.PolyAcc)
	}
}

func TestFig5Quick(t *testing.T) {
	rows, err := experiments.Fig5(quickOpts(), []int{4, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// With the amplifier the estimate must stay noticeably off; with
		// k >= 4 unamplified samples recovery is essentially exact.
		if r.Samples >= 4 && r.UnprotectedAngleErrorDeg > 1 {
			t.Errorf("k=%d: unprotected attack should succeed (err %.2f°)", r.Samples, r.UnprotectedAngleErrorDeg)
		}
	}
}

func TestFig6Contrast(t *testing.T) {
	rows, err := experiments.Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var insecure, secure experiments.Fig6Row
	for _, r := range rows {
		if r.Amplified {
			secure = r
		} else {
			insecure = r
		}
	}
	if insecure.AngleErrorDeg > 0.01 {
		t.Errorf("unamplified recovery should be exact, got %.4f°", insecure.AngleErrorDeg)
	}
	if secure.AngleErrorDeg < 1 {
		t.Errorf("amplified recovery should fail, got %.4f°", secure.AngleErrorDeg)
	}
}

func TestFig7PrivateMatchesOriginal(t *testing.T) {
	rows, err := experiments.Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Errorf("%s: %d private/plaintext label mismatches", r.Dataset, r.Mismatches)
		}
		if r.OriginalAcc != r.PrivateAcc {
			t.Errorf("%s: accuracies differ: %.2f vs %.2f", r.Dataset, r.OriginalAcc, r.PrivateAcc)
		}
	}
}

func TestTable2Concordance(t *testing.T) {
	res, err := experiments.Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d pairs", len(res.Rows))
	}
	if res.SpearmanRho < 0.7 {
		t.Errorf("K-S vs T rank concordance too weak: ρ=%.3f", res.SpearmanRho)
	}
	for _, r := range res.Rows {
		// Protocol fidelity: private and plaintext T agree closely.
		diff := r.PrivateT1000 - r.PlainT1000
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*(1+r.PlainT1000) {
			t.Errorf("%s: private %.3f vs plaintext %.3f", r.Pair, r.PrivateT1000, r.PlainT1000)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	rows, err := experiments.Fig10(quickOpts(), []int{2, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's claim: dimension growth hits the private masking
	// arithmetic much harder than the ordinary metric arithmetic. Growth is
	// asserted on the work count, not on two sub-millisecond timings taken
	// while other packages' tests share the cores.
	// Each round is M = 6 pairs of 1+n elements in and 6 evaluations out:
	// at n = 5 the two rounds handle 2·(6·6 + 6) = 84 field elements.
	if rows[1].Dim != 5 || rows[1].CoreElements != 84 {
		t.Errorf("dim %d handles %d field elements, want dim 5 with 84", rows[1].Dim, rows[1].CoreElements)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CoreElements <= rows[i-1].CoreElements {
			t.Errorf("private core work should grow with dimension: dim %d handles %d field elements, dim %d handles %d",
				rows[i-1].Dim, rows[i-1].CoreElements, rows[i].Dim, rows[i].CoreElements)
		}
	}
	for _, r := range rows {
		if r.PrivateCore < 100*r.OrdinaryCore {
			t.Errorf("dim %d: private core (%v) should dwarf ordinary core (%v)", r.Dim, r.PrivateCore, r.OrdinaryCore)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	opts := quickOpts()
	rows, err := experiments.AblationMaskDegree(opts, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Pairs <= rows[0].Pairs {
		t.Fatalf("mask-degree sweep should grow the pair count: %+v", rows)
	}
	modeRows, err := experiments.AblationModes(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modeRows) != 2 {
		t.Fatalf("%d mode rows", len(modeRows))
	}
	cf, err := experiments.AblationCoverFactor(opts, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cf) != 2 || cf[1].Pairs <= cf[0].Pairs {
		t.Fatalf("cover-factor sweep should grow the pair count: %+v", cf)
	}
}

func TestFig8xParity(t *testing.T) {
	rows, err := experiments.Fig8x(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Errorf("%s/%s: %d private-vs-truncated mismatches", r.Dataset, r.Kernel, r.Mismatches)
		}
		if r.PrivateAcc != r.TruncatedAcc {
			t.Errorf("%s/%s: private %.1f != truncated %.1f", r.Dataset, r.Kernel, r.PrivateAcc, r.TruncatedAcc)
		}
	}
}
