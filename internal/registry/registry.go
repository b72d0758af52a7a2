// Package registry versions trained SVM models for fleet serving: a
// trainer process publishes successive model versions into a Registry,
// and every serving session binds to exactly one published version for
// its whole lifetime (the transport server captures the current trainer
// once at handshake, see transport.TrainerSource). Publishing is an
// atomic hot-swap — new sessions pick the new version up immediately,
// in-flight sessions drain on the version they started with, and no
// session can ever observe a torn model (half old, half new).
package registry

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/svm"
)

// Entry is one published model version. Entries are immutable once
// published; the trainer inside is the long-lived protocol endpoint all
// sessions of that version share.
type Entry struct {
	// Version is the monotonically increasing publish sequence number,
	// starting at 1.
	Version uint64
	// Model is the published model (private trainer-side state).
	Model *svm.Model
	// Trainer is the serving endpoint built from Model.
	Trainer *classify.Trainer
}

// Registry holds the current model version. The zero value is not
// usable; call New. A Registry with no published model yet serves
// nothing (sessions are rejected until the first Publish succeeds).
type Registry struct {
	params classify.Params

	// publishMu serializes Publish calls: version numbers are assigned
	// under it, so versions observed through Version are monotonic.
	publishMu sync.Mutex
	version   atomic.Uint64
	current   atomic.Pointer[Entry]
}

// New builds a registry whose published models all serve under the given
// protocol parameters (group, mask degree, …).
func New(params classify.Params) *Registry {
	return &Registry{params: params}
}

// Publish validates the model, builds its serving trainer, and atomically
// installs it as the current version. It returns the new entry. The old
// version's sessions keep draining against the old trainer; only new
// sessions see the new one. A model that fails validation leaves the
// current version untouched.
func (r *Registry) Publish(model *svm.Model) (*Entry, error) {
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	trainer, err := classify.NewTrainer(model, r.params)
	if err != nil {
		return nil, fmt.Errorf("registry: publish: %w", err)
	}
	e := &Entry{
		Version: r.version.Add(1),
		Model:   model,
		Trainer: trainer,
	}
	r.current.Store(e)
	obs.Add(obs.CtrRegistrySwaps, 1)
	obs.Set(obs.GaugeRegistryVersion, int64(e.Version))
	return e, nil
}

// PublishFile loads a model from its JSON serialization and publishes it
// (the trainer cmd's SIGHUP hot-reload path).
func (r *Registry) PublishFile(path string) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: publish %s: %w", path, err)
	}
	model, err := svm.ReadModel(f)
	closeErr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("registry: publish %s: %w", path, err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("registry: publish %s: %w", path, closeErr)
	}
	return r.Publish(model)
}

// Version returns the current version number (0 before the first
// Publish).
func (r *Registry) Version() uint64 {
	if e := r.current.Load(); e != nil {
		return e.Version
	}
	return 0
}

// CurrentTrainer implements transport.TrainerSource: sessions handshaking
// now bind to the current version's trainer (nil before the first
// Publish, which the server rejects as "no model published").
func (r *Registry) CurrentTrainer() *classify.Trainer {
	if e := r.current.Load(); e != nil {
		return e.Trainer
	}
	return nil
}
