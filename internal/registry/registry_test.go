package registry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/svm"
)

func trainTestModel(t *testing.T, invert bool) *svm.Model {
	t.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	y := train.Y
	if invert {
		y = make([]int, len(train.Y))
		for i, v := range train.Y {
			y[i] = -v
		}
	}
	model, err := svm.Train(train.X, y, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func testParams() classify.Params {
	return classify.Params{}
}

func TestRegistryLifecycle(t *testing.T) {
	r := New(testParams())
	if r.current.Load() != nil || r.Version() != 0 || r.CurrentTrainer() != nil {
		t.Fatal("fresh registry should be empty")
	}

	m1 := trainTestModel(t, false)
	e1, err := r.Publish(m1)
	if err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	if e1.Version != 1 || r.Version() != 1 {
		t.Fatalf("version = %d / %d, want 1", e1.Version, r.Version())
	}
	if r.CurrentTrainer() != e1.Trainer {
		t.Fatal("CurrentTrainer should be v1's trainer")
	}

	m2 := trainTestModel(t, true)
	e2, err := r.Publish(m2)
	if err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	if e2.Version != 2 {
		t.Fatalf("version = %d, want 2", e2.Version)
	}
	// Hot-swap: the new version serves, the old entry is untouched (the
	// sessions that captured it keep a coherent v1 trainer).
	if r.CurrentTrainer() != e2.Trainer {
		t.Fatal("CurrentTrainer should be v2's trainer after swap")
	}
	if e1.Trainer == nil || e1.Model != m1 {
		t.Fatal("v1 entry mutated by v2 publish")
	}
}

func TestRegistryPublishInvalidKeepsCurrent(t *testing.T) {
	r := New(testParams())
	e1, err := r.Publish(trainTestModel(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(&svm.Model{}); err == nil {
		t.Fatal("publishing an invalid model should fail")
	}
	if r.current.Load() != e1 || r.Version() != 1 {
		t.Fatal("failed publish must leave the current version untouched")
	}
}

func TestRegistryPublishFile(t *testing.T) {
	model := trainTestModel(t, false)
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := svm.WriteModel(f, model); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := New(testParams())
	e, err := r.PublishFile(path)
	if err != nil {
		t.Fatalf("PublishFile: %v", err)
	}
	if e.Version != 1 || e.Model.NumSupportVectors() != model.NumSupportVectors() {
		t.Fatalf("loaded entry mismatches: version %d, %d SVs", e.Version, e.Model.NumSupportVectors())
	}

	if _, err := r.PublishFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	} else if !strings.Contains(err.Error(), "registry: publish") {
		t.Fatalf("err = %v", err)
	}
}

// TestRegistryConcurrentPublish hammers Publish from many goroutines
// (run under -race in CI): versions must come out dense and monotonic,
// and every reader must observe a fully-built entry.
func TestRegistryConcurrentPublish(t *testing.T) {
	r := New(testParams())
	m := trainTestModel(t, false)
	const publishers, perPublisher = 4, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e := r.current.Load(); e != nil && (e.Trainer == nil || e.Version == 0) {
					t.Error("observed torn entry")
					return
				}
			}
		}()
	}
	var pwg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for j := 0; j < perPublisher; j++ {
				if _, err := r.Publish(m); err != nil {
					t.Errorf("publish: %v", err)
				}
			}
		}()
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	if got, want := r.Version(), uint64(publishers*perPublisher); got != want {
		t.Fatalf("final version = %d, want %d", got, want)
	}
}
