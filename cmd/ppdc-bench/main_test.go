package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageListsEveryExperiment(t *testing.T) {
	usage := usageText()
	for _, e := range experimentTable {
		if !strings.Contains(usage, e.name) {
			t.Errorf("usage text omits %q:\n%s", e.name, usage)
		}
	}
	if !strings.Contains(usage, "all") {
		t.Errorf("usage text omits \"all\":\n%s", usage)
	}
}

func TestRunRejects(t *testing.T) {
	type rejectCase struct {
		name string
		args []string
		want string // substring of the error
	}
	cases := []rejectCase{
		{"no experiment", nil, "need one experiment"},
		{"removed bench", []string{"bench"}, "unknown experiment"},
		{"removed fieldsweep", []string{"fieldsweep"}, "unknown experiment"},
		{"removed compare", []string{"compare"}, "unknown experiment"},
		{"csv on all", []string{"-csv", "x.csv", "all"}, "-csv needs one experiment"},
		{"csv on series-less fig6", []string{"-csv", "x.csv", "fig6"}, "-csv needs one experiment"},
		{"csv on series-less ablation", []string{"-csv", "x.csv", "ablation"}, "-csv needs one experiment"},
	}
	for _, flagName := range []string{
		"field-backend", "codec", "pad", "json", "out", "queries",
		"batch", "inflight", "baseline", "current", "max-regress", "parallelism",
	} {
		cases = append(cases, rejectCase{"removed flag -" + flagName,
			[]string{"-" + flagName + "=1", "table1"}, "flag provided but not defined"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v, want error containing %q", c.args, err, c.want)
			}
		})
	}
}

func TestFig10WritesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig10.csv")
	if err := run([]string{"-quick", "-csv", path, "fig10"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	const header = "dims,private_us,private_core_us,ordinary_us,ordinary_core_ns"
	if lines[0] != header {
		t.Errorf("header = %q, want %q", lines[0], header)
	}
	if len(lines) < 2 {
		t.Errorf("no data rows after the header:\n%s", raw)
	}
}
