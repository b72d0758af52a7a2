package ppdc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredBenchmarks: every Benchmark… identifier that
// DESIGN.md, README.md or EXPERIMENTS.md names is declared by some
// _test.go file of the repository, so a renamed benchmark cannot leave a
// document pointing at nothing. A name with a trailing * matches every
// benchmark it prefixes.
func TestDocsNameDeclaredBenchmarks(t *testing.T) {
	declRe := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declRe.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// "Benchmark" then a capital, digit or underscore: the word
	// "Benchmarks" and a "## Benchmark" heading are prose.
	nameRe := regexp.MustCompile(`Benchmark[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range nameRe.FindAllString(string(text), -1) {
			if !benchmarkDeclared(declared, name) {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
	}
}

// benchmarkDeclared reports whether name, or with a trailing * any
// benchmark it prefixes, is declared.
func benchmarkDeclared(declared map[string]bool, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
