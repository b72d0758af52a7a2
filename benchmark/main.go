// Command benchmark is the repository's one benchmark: six workloads over
// the real serving stack on loopback TCP, the end-to-end metrics a user of
// the system would see, and a stepped per-layer ledger. See README.md.
//
//	go run ./benchmark -workload <name>|all [-seed 1] [-seconds 15] [-runs 1]
//	go run ./benchmark -workload <name> -seed <n> -seconds <s> -trace 0|1
//	go run ./benchmark compare <a.json> <b.json>
//
// With -trace the process measures one workload once and prints one JSON
// result as its last line: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. Without it the process runs each
// selected workload in processes of its own, first -trace 0 then -trace 1,
// prints every metric by name with its unit, and writes the set of runs
// that compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed of the query stream")
	seconds := fs.Float64("seconds", 15, "length of the measured phase")
	trace := fs.String("trace", "", "0: end-to-end metrics; 1: per-layer metrics; unset: both, each in a process of its own")
	runs := fs.Int("runs", 1, "end-to-end runs per workload, on consecutive seeds (unset -trace only)")
	outDir := fs.String("outdir", filepath.Join("benchmark", "out"), "directory for result documents and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	warnSmallHost()
	if *trace == "" {
		return orchestrate(*name, *seed, *seconds, *runs, *outDir)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var doc *runDoc
	switch *trace {
	case "0":
		doc, err = runEndToEnd(w, *seed, defaultPhases(*seconds))
	case "1":
		doc, err = runTraced(w, *seed, defaultPhases(*seconds), *outDir)
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := writeJSON(*outDir, fmt.Sprintf("%s.trace%s.json", w.name, *trace), doc); err != nil {
		return err
	}
	line, err := json.Marshal(doc.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// spread summarises one metric over a set of runs.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// IQR is the distance between the first and third quartile as a share
	// of the median.
	IQR float64 `json:"iqr_over_median"`
}

// setDoc is a set of runs: what -runs writes and compare reads.
type setDoc struct {
	Host      hostBlock                    `json:"host"`
	Runs      int                          `json:"runs"`
	Workloads map[string]map[string]spread `json:"workloads"`
}

// orchestrate runs each selected workload in child processes, so that
// peak memory and leaked goroutines are one workload's own.
func orchestrate(name string, seed uint64, seconds float64, runs int, outDir string) error {
	selected := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := setDoc{Host: newHostBlock(seed), Runs: runs, Workloads: map[string]map[string]spread{}}
	set.Host.Seconds = seconds
	for _, w := range selected {
		values := map[string][]float64{}
		units := map[string]string{}
		var layers *runResult
		for r := 0; r < runs; r++ {
			for _, trace := range []string{"0", "1"} {
				if trace == "1" && r > 0 {
					continue
				}
				res, err := child(self, w.name, seed+uint64(r), seconds, trace, outDir)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d ops failed or disagreed with the oracle", w.name, res.Failed, res.Attempted)
				}
				if trace == "1" {
					layers = res
					continue
				}
				for n, m := range res.Metrics {
					values[n] = append(values[n], m.Value)
					units[n] = m.Unit
				}
			}
		}
		set.Workloads[w.name] = map[string]spread{}
		fmt.Printf("\n%s  (%d end-to-end run(s) of %gs from seed %d)\n", w.name, runs, seconds, seed)
		for _, n := range sortedKeys(values) {
			sp := summarise(values[n], units[n])
			set.Workloads[w.name][n] = sp
			fmt.Printf("  %-34s %14.6g %-6s", n, sp.Median, sp.Unit)
			if runs > 1 {
				fmt.Printf("  iqr/median %.4f", sp.IQR)
			}
			fmt.Println()
		}
		fmt.Println("  per layer:")
		for _, n := range sortedKeys(layers.Metrics) {
			fmt.Printf("  %-34s %14.6g %s\n", n, layers.Metrics[n].Value, layers.Metrics[n].Unit)
		}
	}
	if err := writeJSON(outDir, "set.json", set); err != nil {
		return err
	}
	fmt.Printf("\nresult documents and traces are in %s\n", outDir)
	return nil
}

// child runs one measuring process to its end and parses its last line.
func child(self, name string, seed uint64, seconds float64, trace, outDir string) (*runResult, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-outdir", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s -trace %s: %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s -trace %s: result line: %w", name, trace, err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
