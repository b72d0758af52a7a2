// Command ppdc-bench regenerates every table and figure of the paper's
// evaluation section (§VI) from this repository's implementations.
//
// Usage:
//
//	ppdc-bench [flags] <experiment>
//
// `ppdc-bench -h` lists the experiments and flags. Performance is measured
// by `go run ./benchmark`, not here.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
)

// experimentTable is the one list of experiments: dispatch, the usage
// text and the "all" run are all derived from it, in the paper's order.
var experimentTable = []struct {
	name string
	run  func(experiments.Options) error
	// series marks experiments that emit a -csv series.
	series bool
	// paper marks the paper's own tables and figures, which "all" runs.
	paper bool
}{
	{"table1", runTable1, true, true},
	{"fig5", runFig5, false, true},
	{"fig6", runFig6, false, true},
	{"fig7", runFig7, false, true},
	{"fig8", runFig8, false, true},
	{"fig9", runFig9, true, true},
	{"table2", runTable2, true, true},
	{"fig10", runFig10, true, true},
	{"fig8x", runFig8x, false, false},
	{"ablation", runAblations, false, false},
}

// experimentNames lists every accepted <experiment> argument, or only
// those that emit a -csv series.
func experimentNames(seriesOnly bool) string {
	var names []string
	for _, e := range experimentTable {
		if e.series || !seriesOnly {
			names = append(names, e.name)
		}
	}
	if !seriesOnly {
		names = append(names, "all")
	}
	return strings.Join(names, ", ")
}

// usageText is the -h header above the flag list.
func usageText() string {
	return fmt.Sprintf("usage: ppdc-bench [flags] <experiment>\nexperiments: %s\n-csv series: %s\nflags:\n",
		experimentNames(false), experimentNames(true))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppdc-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppdc-bench", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 1, "deterministic data seed")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile (after the experiment) to this file")
		quick     = fs.Bool("quick", false, "subsample protocol-heavy experiments")
		fullScale = fs.Bool("full", false, "use the paper's full test-set sizes")
		csvPath   = fs.String("csv", "", "also write the experiment's series to a CSV file")
	)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageText())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need one experiment: %s", experimentNames(false))
	}
	name := fs.Arg(0)
	all := name == "all"
	var selected []func(experiments.Options) error
	for _, e := range experimentTable {
		if e.name != name && !(all && e.paper) {
			continue
		}
		if *csvPath != "" && (all || !e.series) {
			return fmt.Errorf("-csv needs one experiment that emits a series (%s), not %q", experimentNames(true), name)
		}
		selected = append(selected, e.run)
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", name, experimentNames(false))
	}
	opts := experiments.Options{
		Seed:      *seed,
		Quick:     *quick,
		FullScale: *fullScale,
	}
	csvOut = *csvPath
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ppdc-bench: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ppdc-bench: memprofile:", err)
			}
			_ = f.Close()
		}()
	}
	for _, f := range selected {
		if err := f(opts); err != nil {
			return err
		}
		if all {
			fmt.Println()
		}
	}
	return nil
}

// csvOut, when set, receives the active experiment's series.
var csvOut string

// writeCSV dumps one experiment's rows for external plotting.
func writeCSV(header []string, rows [][]string) error {
	if csvOut == "" {
		return nil
	}
	f, err := os.Create(csvOut)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		_ = f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(series written to %s)\n", csvOut)
	return nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func newTable(header string) *tabwriter.Writer {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	return w
}

func runTable1(opts experiments.Options) error {
	started := time.Now()
	rows, err := experiments.Table1(opts)
	if err != nil {
		return err
	}
	fmt.Println("TABLE I: Data Classification Accuracy (ours vs paper)")
	w := newTable("dataset\tdim\ttest\tlinear\tpoly\tpaper-lin\tpaper-poly")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\n",
			r.Dataset, r.Dim, r.TestSize, r.LinearAcc, r.PolyAcc, r.PaperLin, r.PaperPoly)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.Dataset, strconv.Itoa(r.Dim), strconv.Itoa(r.TestSize),
			ftoa(r.LinearAcc), ftoa(r.PolyAcc), ftoa(r.PaperLin), ftoa(r.PaperPoly)})
	}
	if err := writeCSV([]string{"dataset", "dim", "test", "linear", "poly", "paper_lin", "paper_poly"}, csvRows); err != nil {
		return err
	}
	fmt.Printf("(%v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runTable2(opts experiments.Options) error {
	started := time.Now()
	res, err := experiments.Table2(opts)
	if err != nil {
		return err
	}
	fmt.Println("TABLE II: Privacy-preserving Data Similarity Evaluation")
	w := newTable("subset pair\tK-S avg\tprivate 10³T\tplaintext 10³T")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\n", r.Pair, r.KSAverage, r.PrivateT1000, r.PlainT1000)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("rank concordance (Spearman ρ between K-S and private T): %.3f\n", res.SpearmanRho)
	var csvRows [][]string
	for _, r := range res.Rows {
		csvRows = append(csvRows, []string{r.Pair, ftoa(r.KSAverage), ftoa(r.PrivateT1000), ftoa(r.PlainT1000)})
	}
	if err := writeCSV([]string{"pair", "ks_avg", "private_1000T", "plaintext_1000T"}, csvRows); err != nil {
		return err
	}
	fmt.Printf("(%v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig5(opts experiments.Options) error {
	rows, err := experiments.Fig5(opts, nil)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 5: Model Estimation from colluding classification results")
	w := newTable("samples\tangle error (deg)\toffset error\tangle error w/o amplifier (deg)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.3f\t%.2f\n", r.Samples, r.AngleErrorDeg, r.OffsetError, r.UnprotectedAngleErrorDeg)
	}
	return w.Flush()
}

func runFig6(opts experiments.Options) error {
	rows, err := experiments.Fig6(opts)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 6: Decision Function Retrieval (n+1 exact values, 2-D model)")
	w := newTable("amplifier\tangle error (deg)\toffset error")
	for _, r := range rows {
		mode := "disabled (insecure)"
		if r.Amplified {
			mode = "fresh per query"
		}
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", mode, r.AngleErrorDeg, r.OffsetError)
	}
	return w.Flush()
}

func runFig7(opts experiments.Options) error {
	return runAccuracy(opts, false)
}

func runFig8(opts experiments.Options) error {
	return runAccuracy(opts, true)
}

func runAccuracy(opts experiments.Options, nonlinear bool) error {
	started := time.Now()
	var rows []experiments.AccuracyRow
	var err error
	title := "Fig. 7: Accuracy of Linear Data Classification"
	if nonlinear {
		title = "Fig. 8: Accuracy of Nonlinear Data Classification"
		rows, err = experiments.Fig8(opts)
	} else {
		rows, err = experiments.Fig7(opts)
	}
	if err != nil {
		return err
	}
	fmt.Println(title)
	w := newTable("dataset\toriginal\tprivacy-preserving\tsamples\tlabel mismatches")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%d\t%d\n",
			r.Dataset, r.OriginalAcc, r.PrivateAcc, r.Samples, r.Mismatches)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("(%v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig9(opts experiments.Options) error {
	started := time.Now()
	rows, err := experiments.Fig9(opts)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 9: Computational Cost Comparison of Classification")
	w := newTable("dataset\tdata (KB)\tlin-orig\tnonlin-orig\tlin-private\tlin-private-fast\tnonlin-private\toverhead\tfast overhead")
	for _, r := range rows {
		overhead := float64(r.LinearPrivate) / float64(r.LinearOriginal)
		fastOverhead := float64(r.LinearPrivateFast) / float64(r.LinearOriginal)
		fmt.Fprintf(w, "%s\t%.0f\t%v\t%v\t%v\t%v\t%v\t%.0fx\t%.0fx\n",
			r.Dataset, r.DataKB,
			r.LinearOriginal.Round(time.Millisecond),
			r.NonlinearOriginal.Round(time.Millisecond),
			r.LinearPrivate.Round(time.Millisecond),
			r.LinearPrivateFast.Round(time.Millisecond),
			r.NonlinearPrivate.Round(time.Millisecond),
			overhead, fastOverhead)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.Dataset, ftoa(r.DataKB),
			strconv.FormatInt(r.LinearOriginal.Milliseconds(), 10),
			strconv.FormatInt(r.NonlinearOriginal.Milliseconds(), 10),
			strconv.FormatInt(r.LinearPrivate.Milliseconds(), 10),
			strconv.FormatInt(r.NonlinearPrivate.Milliseconds(), 10)})
	}
	if err := writeCSV([]string{"dataset", "data_kb", "lin_orig_ms", "nonlin_orig_ms", "lin_priv_ms", "nonlin_priv_ms"}, csvRows); err != nil {
		return err
	}
	fmt.Printf("(totals projected from %d measured queries per series; %v)\n",
		rows[0].MeasuredQueries, time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig10(opts experiments.Options) error {
	rows, err := experiments.Fig10(opts, nil)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 10: Computational Cost Comparison of Similarity Evaluation")
	w := newTable("dims\tprivate (full, with OT)\tprivate core (masking arith.)\tcore field elements\tordinary (full)\tordinary core (metric arith.)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%d\t%v\t%v\n",
			r.Dim, r.Private.Round(time.Microsecond), r.PrivateCore.Round(time.Microsecond), r.CoreElements,
			r.Ordinary.Round(time.Microsecond), r.OrdinaryCore)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{strconv.Itoa(r.Dim),
			strconv.FormatInt(r.Private.Microseconds(), 10),
			strconv.FormatInt(r.PrivateCore.Microseconds(), 10),
			strconv.FormatInt(r.Ordinary.Microseconds(), 10),
			strconv.FormatInt(r.OrdinaryCore.Nanoseconds(), 10)})
	}
	return writeCSV([]string{"dims", "private_us", "private_core_us", "ordinary_us", "ordinary_core_ns"}, csvRows)
}

func runAblations(opts experiments.Options) error {
	type sweep struct {
		title string
		run   func() ([]experiments.AblationRow, error)
	}
	sweeps := []sweep{
		{"Masking degree q (security parameter)", func() ([]experiments.AblationRow, error) {
			return experiments.AblationMaskDegree(opts, nil)
		}},
		{"Cover factor k (decoy multiplier)", func() ([]experiments.AblationRow, error) {
			return experiments.AblationCoverFactor(opts, nil)
		}},
		{"Nonlinear evaluation form", func() ([]experiments.AblationRow, error) {
			return experiments.AblationModes(opts)
		}},
		{"OMPE vs Paillier baseline", func() ([]experiments.AblationRow, error) {
			return experiments.AblationPaillier(opts)
		}},
		{"IKNP fast session vs one-shot", func() ([]experiments.AblationRow, error) {
			return experiments.AblationFastPath(opts)
		}},
	}
	for _, s := range sweeps {
		rows, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		fmt.Println("Ablation:", s.title)
		w := newTable("config\tper query\tnotes")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%s\n", r.Name, r.PerQuery.Round(10*time.Microsecond), r.Note)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig8x(opts experiments.Options) error {
	started := time.Now()
	rows, err := experiments.Fig8x(opts)
	if err != nil {
		return err
	}
	fmt.Println("Extension: private RBF/sigmoid classification (not evaluated by the paper)")
	w := newTable("dataset\tkernel\texact model\ttruncated model\tprivacy-preserving\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%d/%d\n",
			r.Dataset, r.Kernel, r.ExactAcc, r.TruncatedAcc, r.PrivateAcc, r.Mismatches, r.Samples)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("(%v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}
