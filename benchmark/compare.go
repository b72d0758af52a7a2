package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// specPath is the benchmark's definition, relative to the repository
// root, where the benchmark runs from.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json that compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return at(1), at(3)
}

func summarise(values []float64, unit string) spread {
	sp := spread{Unit: unit, Values: values, Median: median(values)}
	if q1, q3 := quartiles(values); sp.Median != 0 {
		sp.IQR = (q3 - q1) / sp.Median
	}
	return sp
}

// verdict of one metric on one workload between two sets of runs.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound: b may be worse than a by at most
// bound as a share of a's median. When either set's own spread exceeds
// the bound the runs cannot tell, and the row is unresolved.
func judge(m specMetric, a, b spread) (worse float64, verdict string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	worse = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.IQR > m.Bound || b.IQR > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictWorse
	}
	return worse, verdictOK
}

// runCompare prints one row per end-to-end metric and workload and fails
// when any row is worse than its bound.
func runCompare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare <a.json> <b.json>, from the repository root")
	}
	var spec benchSpec
	var a, b setDoc
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	fmt.Fprintf(out, "%-18s %-20s %14s %14s %9s %7s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "a iqr", "b iqr", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := a.Workloads[w.Name][m.Name]
			sb, okB := b.Workloads[w.Name][m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-18s %-20s missing from one set\n", w.Name, m.Name)
				bad++
				continue
			}
			worse, verdict := judge(m, sa, sb)
			if verdict == verdictWorse {
				bad++
			}
			fmt.Fprintf(out, "%-18s %-20s %14.6g %14.6g %+8.1f%% %6.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*sa.IQR, 100*sb.IQR, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse than their bound or missing", bad)
	}
	return nil
}
