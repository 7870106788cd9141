// Package repro is a Go reproduction of "Completing the Node-Averaged
// Complexity Landscape of LCLs on Trees" (Balliu, Brandt, Kuhn, Olivetti,
// Schmid; PODC 2024, arXiv:2405.01366).
//
// # Architecture
//
// Execution is organized around the batch pipeline construction → execution
// → emission:
//
//   - Construction (internal/inst, wired inside the drivers): lower-bound
//     instances are requested through a keyed, size-bounded, singleflight
//     cache, so repeated presets and concurrently scheduled tasks build
//     each instance exactly once. The cache holds bare trees and keyed
//     composite entries (the Definition-25 weighted and Section-10
//     weight-augmented instances), composites sharing their hierarchical
//     core through the same cache. InstanceCacheStats exposes the
//     hit/miss/build-time counters with a per-kind breakdown.
//
//   - Execution: every result-regenerating computation of the paper is a
//     registered Experiment (internal/exp, re-exported here) with
//     quick/standard/stress presets and a context-aware Run returning a
//     JSON-native Result. Each scaling sweep additionally declares a Plan:
//     one independently schedulable Task per sweep point, carrying a seed
//     derived via PointSeed (a pure function of experiment and point, never
//     of scheduling order). RunBatch schedules tasks — not whole
//     experiments — across a bounded worker pool with per-task contexts and
//     first-failure cancellation, reassembling outputs positionally so the
//     aggregate is canonically byte-identical to the serial run; the
//     simulation engine (internal/sim) adds round-internal parallelism and
//     sharding below it via functional options — sim.NewEngine(
//     sim.WithIDs(...), sim.WithParallelism(n), sim.WithShards(k)).Run(
//     tree, alg) — with sequential, parallel, and sharded runs
//     bit-identical (sharded runs partition the tree into node-range
//     shards exchanging only boundary messages, and report per-shard
//     statistics).
//
//   - Emission: RunBatch streams each Result as NDJSON the moment it
//     finishes while keeping the aggregate deterministic (registry order);
//     WriteResults persists canonical (elapsed-stripped) JSON keyed by
//     experiment+preset+seed, and CompareResults diffs two persisted sets,
//     flagging fitted-slope drift beyond a tolerance — a regression tracker
//     over the JSON schema. cmd/experiments exposes all of it (-run, -jobs,
//     -json, -ndjson, -out, and the compare subcommand).
//
// The substrate packages provide:
//
//   - the LOCAL-model engine with per-node termination rounds and
//     node-averaged complexity accounting (internal/sim);
//   - the k-hierarchical 2½/3½-coloring LCLs, their verifier, and the
//     generic phase algorithm of Section 4.1 (internal/hierarchy);
//   - the weighted problems Π^Z_{Δ,d,k} of Definition 22 with both
//     upper-bound algorithms and the Definition-25 lower-bound constructions
//     (internal/weighted, internal/dfree, internal/decomp);
//   - the Section-10 weight-augmented 2½-coloring closing the Θ(n^{1/k})
//     points (internal/labeling);
//   - the landscape mathematics: α₁ exponents, efficiency factors, and the
//     density parameter searches behind Theorems 1 and 6
//     (internal/landscape);
//   - the Section-11 decidability machinery for path LCLs
//     (internal/pathlcl).
package repro

import (
	"context"
	"crypto/tls"
	"io"
	"net"

	"repro/internal/exp"
	"repro/internal/inst"
)

// Experiment is a registered, runnable scenario; see the internal/exp
// package documentation.
type Experiment = exp.Experiment

// RunConfig parameterizes one registry experiment run (preset, sweep
// override, seed, simulator parallelism).
type RunConfig = exp.RunConfig

// RunResult is the JSON-native outcome of a registry experiment run.
type RunResult = exp.Result

// BatchOptions parameterizes RunBatch (worker count, shared RunConfig,
// optional NDJSON stream).
type BatchOptions = exp.BatchOptions

// Task is one independently schedulable unit of an experiment run — a
// single sweep point for decomposable sweeps.
type Task = exp.Task

// TaskPlan is a decomposed experiment run: independent tasks plus their
// deterministic reassembly; see exp.TaskPlan.
type TaskPlan = exp.TaskPlan

// Drift is one divergence reported by CompareResults.
type Drift = exp.Drift

// WorkerStats is one worker subprocess's shutdown report (task count and
// instance-cache counters), delivered through BatchOptions.OnWorkerStats.
type WorkerStats = exp.WorkerStats

// CacheStats is a snapshot of the instance-cache counters.
type CacheStats = inst.Stats

// CatalogEntry is the machine-readable form of one registered experiment,
// shared by `experiments -list -json` and the expd service catalog endpoint.
type CatalogEntry = exp.CatalogEntry

// Experiments returns every registered experiment in registration order.
func Experiments() []*Experiment { return exp.List() }

// Catalog returns the machine-readable experiment catalog in registration
// order; see exp.Catalog.
func Catalog() []CatalogEntry { return exp.Catalog() }

// LookupExperiment returns the experiment registered under name.
func LookupExperiment(name string) (*Experiment, bool) { return exp.Lookup(name) }

// RunExperiment looks up name and runs it under cfg.
func RunExperiment(ctx context.Context, name string, cfg RunConfig) (*RunResult, error) {
	e, ok := exp.Lookup(name)
	if !ok {
		return nil, exp.ErrUnknownExperiment(name)
	}
	return e.Run(ctx, cfg)
}

// RunBatch executes a set of experiments across a bounded worker pool; see
// exp.RunBatch.
func RunBatch(ctx context.Context, exps []*Experiment, opts BatchOptions) ([]*RunResult, error) {
	return exp.RunBatch(ctx, exps, opts)
}

// RunWorker speaks the worker side of the multi-process batch protocol over
// r/w until EOF; see exp.RunWorker and docs/DISTRIBUTED.md. It is the loop
// behind the `experiments worker` subcommand, which BatchOptions.Workers
// spawns one subprocess per worker of.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	return exp.RunWorker(ctx, r, w)
}

// ServeWorker is the acceptor side of the TCP worker transport: it accepts
// connections on l and serves the worker protocol on each until ctx is
// canceled. It is the loop behind `experiments worker -listen`, whose
// address BatchOptions.Remote dials. See exp.ServeWorker and
// docs/DISTRIBUTED.md.
func ServeWorker(ctx context.Context, l net.Listener) error {
	return exp.ServeWorker(ctx, l)
}

// WorkerTLSConfig builds the acceptor-side TLS configuration for
// `experiments worker -listen` from a certificate/key pair; wrap the
// listener with tls.NewListener.
func WorkerTLSConfig(certFile, keyFile string) (*tls.Config, error) {
	return exp.WorkerTLSConfig(certFile, keyFile)
}

// RemoteTLSConfig builds the dialer-side TLS configuration for
// BatchOptions.RemoteTLS: connections to remote workers are verified
// against the CA bundle (or self-signed worker certificate) in caFile.
func RemoteTLSConfig(caFile string) (*tls.Config, error) {
	return exp.RemoteTLSConfig(caFile)
}

// CatalogHash fingerprints the registered experiment catalog; orchestrator
// and worker compare it at handshake so catalog-skewed binaries refuse to
// exchange tasks. See exp.CatalogHash.
func CatalogHash() string { return exp.CatalogHash() }

// BuildID fingerprints the running binary (module version plus VCS
// revision when stamped); the worker handshake compares it so a worker
// built from different code is refused even when its catalog agrees. See
// exp.BuildID.
func BuildID() string { return exp.BuildID() }

// WriteResults persists results in canonical (elapsed-stripped) JSON form:
// one file per run under a directory, or a single array at a .json path.
func WriteResults(path string, results []*RunResult) error {
	return exp.WriteResults(path, results)
}

// LoadResults reads a result set written by WriteResults.
func LoadResults(path string) ([]*RunResult, error) { return exp.LoadResults(path) }

// CanonicalResultJSON renders a result exactly as WriteResults persists it
// in a directory result set (canonical form, indented, newline-terminated);
// see exp.CanonicalJSON. It is the byte contract of the expd result store.
func CanonicalResultJSON(res *RunResult) ([]byte, error) { return exp.CanonicalJSON(res) }

// CompareResults diffs two result sets and reports drift (fitted slopes
// beyond tol, changed analytic constants, shape changes, one-sided runs).
func CompareResults(base, cur []*RunResult, tol float64) []Drift {
	return exp.Compare(base, cur, tol)
}

// InstanceCacheStats snapshots the shared instance provider's counters,
// including the per-kind breakdown (bare trees vs composite instances).
func InstanceCacheStats() CacheStats { return exp.InstanceCache().Stats() }

// InstanceCacheKinds lists the cached construction families in stable
// display order (for rendering CacheStats.Kinds).
func InstanceCacheKinds() []inst.Kind { return inst.Kinds() }

// PointSeed derives the ID seed of one sweep point from a run's base seed
// and the point's sweep value; see exp.PointSeed. It is a pure function of
// its inputs, so a point's IDs never depend on scheduling order.
func PointSeed(base uint64, point int) uint64 { return exp.PointSeed(base, point) }
