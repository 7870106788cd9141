package exp

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is the sentinel wrapped by ErrUnknownExperiment.
var ErrNotFound = errors.New("experiment not registered")

// ErrUnknownExperiment builds the canonical lookup-miss error for name.
func ErrUnknownExperiment(name string) error {
	return fmt.Errorf("exp: %q: %w", name, ErrNotFound)
}

// The global registry. Registration order is preserved so that "run
// everything" reproduces the historical cmd/experiments output order.
var registry = struct {
	sync.RWMutex
	byName map[string]*Experiment
	order  []string
}{byName: map[string]*Experiment{}}

// Register adds an experiment to the registry. It rejects nil experiments,
// empty names, missing Run functions, and duplicate names.
func Register(e *Experiment) error {
	if e == nil {
		return fmt.Errorf("exp: Register(nil)")
	}
	if e.Name == "" {
		return fmt.Errorf("exp: experiment with empty name")
	}
	if e.Run == nil {
		return fmt.Errorf("exp: experiment %q has no Run function", e.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[e.Name]; dup {
		return fmt.Errorf("exp: experiment %q already registered", e.Name)
	}
	registry.byName[e.Name] = e
	registry.order = append(registry.order, e.Name)
	return nil
}

// MustRegister is Register that panics on error; for catalog init.
func MustRegister(e *Experiment) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (*Experiment, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[name]
	return e, ok
}

// List returns every registered experiment in registration order.
func List() []*Experiment {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Experiment, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// CatalogEntry is the machine-readable form of one registered experiment:
// everything needed to drive a run without reading drivers.go. It is the
// element type of `experiments -list -json` and of the expd service's
// GET /v1/experiments, which must stay byte-identical.
type CatalogEntry struct {
	Name        string           `json:"name"`
	Theory      string           `json:"theory,omitempty"`
	Description string           `json:"description,omitempty"`
	Presets     map[string][]int `json:"presets,omitempty"`
	DefaultSeed uint64           `json:"default_seed,omitempty"`
	// Decomposable reports whether the experiment plans per-sweep-point
	// tasks (so schedulers parallelize inside its sweep, not just across
	// experiments).
	Decomposable bool `json:"decomposable"`
}

// Catalog returns the machine-readable catalog of every registered
// experiment, in registration order.
func Catalog() []CatalogEntry {
	exps := List()
	entries := make([]CatalogEntry, 0, len(exps))
	for _, e := range exps {
		entries = append(entries, CatalogEntry{
			Name:         e.Name,
			Theory:       e.Theory,
			Description:  e.Description,
			Presets:      e.Presets,
			DefaultSeed:  e.DefaultSeed,
			Decomposable: e.Plan != nil,
		})
	}
	return entries
}
