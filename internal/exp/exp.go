// Package exp is the experiment registry and execution API.
//
// Every result-regenerating computation of the reproduction — the scaling
// sweeps behind Theorems 2-5 and 11, the density searches of Theorems 1 and
// 6, the landscape figures, the path-LCL classifier — is a registered
// Experiment: a named value with presets (quick/standard/stress sweeps) and
// a context-aware Run function returning a JSON-native Result. Callers
// discover experiments with List/Lookup instead of hard-wiring drivers, so
// adding a scenario is one Register call rather than edits across three
// files. docs/EXPERIMENTS.md maps each catalog entry to the paper claim it
// reproduces.
//
// Decomposable experiments additionally declare a Plan: one independently
// schedulable Task per sweep point (task.go), each carrying a seed derived
// via PointSeed — a pure function of (experiment, point), never of
// scheduling. RunBatch (runner.go) schedules tasks across a bounded worker
// pool and reassembles outputs positionally, so the aggregate is canonically
// byte-identical to a serial run under any -jobs level, simulator
// parallelism, or shard count. Results persist in canonical form
// (persist.go: Canonical/WriteResults/LoadResults) and Compare diffs two
// persisted sets as a regression check.
//
// The sweep drivers themselves also live here (drivers.go), declared as
// sweepSpec values; the ensembles (ensemble.go) are sweepSpecs too, sweeping
// over sample indices. A spec's point functions feed only the task planner:
// a planned experiment's Run is its plan run serially, so each experiment
// has one execution path whatever runs it.
package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/measure"
)

// Preset names every experiment understands.
const (
	PresetQuick    = "quick"
	PresetStandard = "standard"
	PresetStress   = "stress"
)

// RunConfig parameterizes one execution of an experiment.
type RunConfig struct {
	// Preset selects one of the experiment's sweeps (quick/standard/stress);
	// empty means standard.
	Preset string
	// Sizes overrides the preset's sweep values (the meaning — n, T, w, or γ
	// — is per experiment). Ignored by experiments without a sweep axis.
	Sizes []int
	// Seed overrides the experiment's default ID seed; 0 keeps the default.
	Seed uint64
	// Parallelism is the simulator worker count for simulator-backed
	// experiments (0 or 1 = sequential, < 0 = GOMAXPROCS). Analytic
	// experiments ignore it; results are identical at every level either
	// way.
	Parallelism int
	// Shards is the simulator shard count for simulator-backed experiments
	// (0 or 1 = unsharded, < 0 = GOMAXPROCS): the tree is partitioned into
	// contiguous node-range shards exchanging only boundary messages (see
	// sim.WithShards). Analytic experiments ignore it; canonical results are
	// byte-identical at every shard count.
	Shards int
}

// Experiment is one registered, runnable scenario.
type Experiment struct {
	// Name is the unique registry key (kebab-case).
	Name string
	// Description says what the experiment measures.
	Description string
	// Theory cites the theorem/lemma/figure of the paper it regenerates.
	Theory string
	// Presets maps preset names to sweep values. Nil for experiments without
	// a sweep axis (their Run ignores sizes).
	Presets map[string][]int
	// DefaultSeed is used when RunConfig.Seed is 0.
	DefaultSeed uint64
	// Run executes the experiment. Implementations honor ctx between sweep
	// points and return an error wrapping ctx.Err() on cancellation. For the
	// catalog's planned experiments (sweeps and ensembles), Run is the plan
	// run serially: RunBatch of this one experiment at Jobs 1.
	Run func(ctx context.Context, cfg RunConfig) (*Result, error)
	// Plan, when non-nil, decomposes a run into independently schedulable
	// sweep-point tasks; RunBatch schedules tasks, not whole experiments.
	// Nil means the experiment is a single unit and RunBatch wraps Run (the
	// catalog's table experiments). An experiment that sets both must
	// produce identical canonical results from Run and from Plan for the
	// same RunConfig, regardless of how the plan's tasks are scheduled.
	Plan func(cfg RunConfig) (*TaskPlan, error)
}

// SchemaVersion is the version of the Result JSON schema, stamped into
// every emitted result so persisted files are self-describing.
//
// History: version 1 (unstamped; files without a "schema" field) is the
// PR 1-3 format. Version 2 adds the "schema" and "shards" fields and makes
// the canonical (persisted) form strip the execution-mechanics fields
// (parallelism, shards) alongside elapsed_ms. See README "JSON output
// schema".
const SchemaVersion = 2

// Result is the JSON-native outcome of one experiment run.
type Result struct {
	Schema      int    `json:"schema,omitempty"`
	Name        string `json:"name"`
	Theory      string `json:"theory,omitempty"`
	Preset      string `json:"preset,omitempty"`
	Sizes       []int  `json:"sizes,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	// Steps is the total simulator machine-step work (sim.Result.Steps summed
	// over the run's simulated points); 0 for purely analytic experiments.
	// Like elapsed_ms it describes execution work, not computed results, and
	// the canonical (persisted) form strips it.
	Steps     int64           `json:"steps,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Tables    []measure.Table `json:"tables"`
	Fit       *Fit            `json:"fit,omitempty"`
	// ShardTraffic summarizes what the sharded simulator's partition cost
	// across the run's simulated points; nil for analytic or unsharded runs.
	// It is live-only telemetry, reported by cmd/experiments -json and
	// summed into expd /statsz, and, being execution mechanics, the
	// canonical form strips it.
	ShardTraffic *ShardTraffic `json:"shard_traffic,omitempty"`
}

// ShardTraffic aggregates the sharded simulator's per-shard statistics over
// every simulated point of a run (sim.Result.Shards).
type ShardTraffic struct {
	// BoundaryEdges is the total number of edges crossing shard boundaries,
	// summed over simulated points, each edge counted once (the per-shard
	// statistics count both endpoints).
	BoundaryEdges int64 `json:"boundary_edges"`
	// MessagesCrossed is the total number of real messages that crossed a
	// shard boundary, summed over simulated points.
	MessagesCrossed int64 `json:"messages_crossed"`
}

// Fit is the fitted-versus-theory exponent comparison of a scaling sweep.
type Fit struct {
	Slope       float64 `json:"slope"`
	TheorySlope float64 `json:"theory_slope"`
	// TheoryUpper is the upper-bound exponent where the paper leaves a gap
	// (Theorems 4-5); equal to TheorySlope otherwise.
	TheoryUpper float64         `json:"theory_upper,omitempty"`
	Points      []measure.Point `json:"points,omitempty"`
}

// sizesFor resolves the sweep for cfg against the experiment's presets.
func (e *Experiment) sizesFor(cfg RunConfig) ([]int, string, error) {
	preset := cfg.Preset
	if preset == "" {
		preset = PresetStandard
	}
	if cfg.Sizes != nil {
		return cfg.Sizes, preset, nil
	}
	if e.Presets == nil {
		return nil, preset, nil
	}
	sizes, ok := e.Presets[preset]
	if !ok {
		return nil, preset, fmt.Errorf("exp: experiment %q has no preset %q", e.Name, preset)
	}
	return sizes, preset, nil
}

// seedFor resolves the ID seed for cfg.
func (e *Experiment) seedFor(cfg RunConfig) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	return e.DefaultSeed
}

// newResult stamps the shared metadata of a run outcome.
func (e *Experiment) newResult(cfg RunConfig, preset string, sizes []int, started time.Time) *Result {
	return &Result{
		Schema:      SchemaVersion,
		Name:        e.Name,
		Theory:      e.Theory,
		Preset:      preset,
		Sizes:       sizes,
		Seed:        e.seedFor(cfg),
		Parallelism: cfg.Parallelism,
		Shards:      cfg.Shards,
		ElapsedMS:   float64(time.Since(started).Microseconds()) / 1000,
	}
}

// sweepExperiment wraps a decomposable sweep — a scaling sweep or an
// ensemble — as a registered Experiment. The spec constructor resolves the
// sweep's analytic constants (it may fail on invalid parameters). Plan
// exposes the points as independently schedulable tasks, and Run is that
// plan run serially (RunBatch at Jobs 1), so every execution path computes
// through the same tasks and the same assembly.
func sweepExperiment(name, description, theory string, presets map[string][]int, seed uint64,
	spec func() (*sweepSpec, error)) *Experiment {
	e := &Experiment{
		Name:        name,
		Description: description,
		Theory:      theory,
		Presets:     presets,
		DefaultSeed: seed,
	}
	e.Run = func(ctx context.Context, cfg RunConfig) (*Result, error) {
		results, err := RunBatch(ctx, []*Experiment{e}, BatchOptions{Jobs: 1, Config: cfg})
		if err != nil {
			return nil, err
		}
		return results[0], nil
	}
	e.Plan = func(cfg RunConfig) (*TaskPlan, error) {
		sizes, preset, err := e.sizesFor(cfg)
		if err != nil {
			return nil, err
		}
		s, err := spec()
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
		}
		base := e.seedFor(cfg)
		// The elapsed clock starts when the experiment's first task actually
		// runs (or, under a multi-process backend, when its first task is
		// dispatched — the plan's Started hook), not when the plan is
		// derived: RunBatch derives every plan up front, and queue wait is
		// not this experiment's runtime. (ElapsedMS then spans first task
		// start to assembly: the experiment's wall clock under whatever
		// concurrency it was scheduled with.)
		started := time.Now() // fallback for empty sweeps
		var startedOnce sync.Once
		markStarted := func() { startedOnce.Do(func() { started = time.Now() }) }
		tasks := make([]Task, len(sizes))
		for i, val := range sizes {
			val := val
			pseed := PointSeed(base, val)
			var key, affinity string
			if s.key != nil {
				k := s.key(val, pseed)
				key = k.String()
				affinity = k.Core().String()
			}
			tasks[i] = Task{
				Label:       fmt.Sprintf("%s %s=%d", e.Name, s.xName, val),
				Seed:        pseed,
				InstanceKey: key,
				Affinity:    affinity,
				Run: func(ctx context.Context) (any, error) {
					markStarted()
					if err := sweepStep(ctx); err != nil {
						return nil, err
					}
					p, err := s.point(ctx, val, pseed, engCfg(cfg))
					if err != nil {
						return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
					}
					return p, nil
				},
			}
		}
		return &TaskPlan{
			Tasks: tasks,
			Assemble: func(outs []any) (*Result, error) {
				points := make([]sweepPoint, len(outs))
				for i, o := range outs {
					p, ok := o.(sweepPoint)
					if !ok {
						return nil, fmt.Errorf("exp: %s: task %d output is %T, not a sweep point", e.Name, i, o)
					}
					points[i] = p
				}
				res := e.newResult(cfg, preset, sizes, started)
				if err := s.assemble(res, sizes, points); err != nil {
					return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
				}
				return res, nil
			},
			Encode:  encodeSweepPoint,
			Decode:  decodeSweepPoint,
			Started: markStarted,
		}, nil
	}
	return e
}

// tableExperiment wraps a driver producing tables only (no fitted exponent).
func tableExperiment(name, description, theory string, presets map[string][]int, seed uint64,
	driver func(ctx context.Context, sizes []int, seed uint64) ([]measure.Table, error)) *Experiment {
	e := &Experiment{
		Name:        name,
		Description: description,
		Theory:      theory,
		Presets:     presets,
		DefaultSeed: seed,
	}
	e.Run = func(ctx context.Context, cfg RunConfig) (*Result, error) {
		if err := sweepStep(ctx); err != nil {
			return nil, err
		}
		sizes, preset, err := e.sizesFor(cfg)
		if err != nil {
			return nil, err
		}
		started := time.Now()
		tables, err := driver(ctx, sizes, e.seedFor(cfg))
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
		}
		res := e.newResult(cfg, preset, sizes, started)
		res.Tables = tables
		return res, nil
	}
	return e
}
