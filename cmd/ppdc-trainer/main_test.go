package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadTrainingSynthetic(t *testing.T) {
	train, spec, err := loadTraining("diabetes", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Dim() != 8 || spec.LinC == 0 {
		t.Fatalf("dim=%d spec=%+v", train.Dim(), spec)
	}
}

func TestLoadTrainingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.libsvm")
	content := "+1 1:0.5 2:-0.5\n-1 1:-0.5 2:0.5\n+1 1:0.9\n-1 2:0.9\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	train, _, err := loadTraining("ignored", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 4 || train.Dim() != 2 {
		t.Fatalf("loaded %dx%d", train.Len(), train.Dim())
	}
}

func TestLoadTrainingUnknownDataset(t *testing.T) {
	if _, _, err := loadTraining("nonexistent", "", 1); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-kernel", "mystery", "-addr", "127.0.0.1:0", "-dataset", "diabetes"}); err == nil {
		t.Fatal("unknown kernel should fail")
	}
	// The unknown kernel keeps the call from serving should a removed
	// flag ever parse again.
	for _, removed := range []string{"-group=2048", "-pad=sha256", "-field-backend=limb"} {
		if err := run([]string{removed, "-kernel", "mystery", "-addr", "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("removed flag %s: got %v, want an undefined-flag error", removed, err)
		}
	}
}
