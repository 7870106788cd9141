package exp

// The batch runner: decomposes every experiment into its task plan (one
// task per sweep point for decomposable sweeps), schedules *tasks* across an
// execution backend, streams each experiment's result as its last task
// finishes, and reassembles a deterministic aggregate regardless of
// completion order. Scheduling below experiment granularity is what lets
// -jobs flatten a batch whose serial time is dominated by one long sweep.
//
// Two backends implement the runner interface: the in-process localRunner
// (a bounded goroutine pool, BatchOptions.Jobs) and the multi-process
// ProcRunner (worker subprocesses speaking the NDJSON protocol of proto.go,
// BatchOptions.Workers). RunBatch owns everything both share — plan
// derivation, positional assembly, NDJSON streaming, first-failure
// bookkeeping — so the canonical aggregate is byte-identical whichever
// backend ran the tasks.

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// BatchOptions parameterizes RunBatch.
type BatchOptions struct {
	// Jobs is the maximum number of tasks executing concurrently in process;
	// values <= 1 run serially. Tasks are sweep points, so Jobs > 1
	// parallelizes inside a single experiment's sweep as well as across
	// experiments. Simulator-internal parallelism (RunConfig.Parallelism)
	// composes multiplicatively with Jobs. Ignored when Workers > 0.
	Jobs int
	// Workers, when > 0, executes tasks in that many worker subprocesses
	// instead of in-process goroutines: each worker is spawned from
	// WorkerCommand, speaks the NDJSON protocol of proto.go over its
	// stdin/stdout, and receives tasks grouped by instance affinity (tasks
	// sharing a hierarchical core route to the same worker). The canonical
	// aggregate stays byte-identical to the serial in-process run at every
	// worker count.
	Workers int
	// WorkerCommand is the argv spawning one worker subprocess. Empty means
	// the current executable with the single argument "worker" — correct
	// when the embedding binary exposes a worker subcommand the way
	// cmd/experiments does.
	WorkerCommand []string
	// WorkerEnv is extra environment appended to the inherited environment
	// of every worker subprocess.
	WorkerEnv []string
	// Remote lists remote worker addresses (host:port of processes running
	// `experiments worker -listen`); each address becomes one worker slot
	// dialed over TCP instead of a spawned subprocess. May be combined with
	// Workers > 0 only in the sense that Remote wins: when Remote is
	// non-empty the batch runs on the remote slots exclusively. An address
	// that is unreachable at batch start is re-dialed on a backoff schedule
	// and joins mid-batch; see docs/DISTRIBUTED.md.
	Remote []string
	// RemoteTLS, when non-nil, wraps every remote worker connection in TLS
	// (see RemoteTLSConfig).
	RemoteTLS *tls.Config
	// RemoteReadTimeout, when > 0, bounds per-read silence on remote worker
	// connections — an opt-in ceiling on task duration that fails a
	// connected-but-stalled peer with a labeled error. Zero (the default)
	// disables it; kernel keepalives still detect dead peers.
	RemoteReadTimeout time.Duration
	// WorkerRetry, when true, retries a crashed worker's remaining tasks
	// (including the in-flight one) once on a fresh worker before failing
	// the batch. Task-level failures (the task itself returned an error)
	// are never retried — they are deterministic.
	WorkerRetry bool
	// OnWorkerStats, when non-nil, receives each worker's shutdown stats
	// (task count and instance-cache counters) as its process exits
	// cleanly.
	OnWorkerStats func(WorkerStats)
	// Config is the per-experiment run configuration (preset, seed,
	// simulator parallelism), shared by every experiment in the batch.
	Config RunConfig
	// Stream, when non-nil, receives each Result as one compact JSON line
	// (NDJSON) the moment its experiment's last task finishes — in
	// completion order, which under concurrency differs run to run. The
	// aggregate return value stays ordered by input position either way.
	Stream io.Writer
}

// batchState is the per-invocation state a runner reports into: the derived
// plans plus the two callbacks every backend shares. Both callbacks are safe
// for concurrent use.
type batchState struct {
	exps  []*Experiment
	plans []*TaskPlan
	cfg   RunConfig
	// deliver records task output (exp, task) and triggers the experiment's
	// positional assembly once its last task completed.
	deliver func(exp, task int, out any)
	// fail records a failure and cancels the batch context; context
	// cancellation errors are bucketed apart so fallout never drowns the
	// root cause.
	fail func(err error)
}

// A runner executes every task of the derived plans, honoring ctx, and
// reports outcomes through the batch state. Implementations own execution
// placement only; ordering, assembly, and error aggregation live in
// RunBatch.
type runner interface {
	runTasks(ctx context.Context, b *batchState)
}

// localRunner is the in-process backend: a bounded pool of goroutines
// draining the canonical task queue.
type localRunner struct {
	jobs int
}

func (r localRunner) runTasks(ctx context.Context, b *batchState) {
	type unit struct{ exp, task int }
	total := 0
	for _, p := range b.plans {
		total += len(p.Tasks)
	}
	// The queue holds every task in canonical order (experiment position,
	// then task position); workers drain it, skipping tasks once the batch
	// is failing so cancellation stops remaining work promptly.
	queue := make(chan unit, total)
	for i, p := range b.plans {
		for j := range p.Tasks {
			queue <- unit{i, j}
		}
	}
	close(queue)
	jobs := r.jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > total {
		jobs = total
	}
	if jobs < 1 {
		jobs = 1 // every plan is empty; keep the pool valid
	}
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range queue {
				if ctx.Err() != nil {
					continue // batch already failing; drain without running
				}
				t := &b.plans[u.exp].Tasks[u.task]
				tctx, tcancel := context.WithCancel(ctx)
				out, err := t.Run(tctx)
				tcancel()
				if err != nil {
					b.fail(err)
					continue
				}
				b.deliver(u.exp, u.task, out)
			}
		}()
	}
	wg.Wait()
}

// RunBatch executes exps under opts and returns their results ordered by
// input position (registry order when the slice came from List), regardless
// of completion order. Each experiment is decomposed into its task plan;
// every task runs under its own context derived from ctx, the first failure
// cancels all remaining tasks, and each experiment's outputs are reassembled
// in canonical task order — so the aggregate is byte-identical (canonically)
// to the serial run, whatever the scheduling or backend (in-process Jobs
// pool or Workers subprocesses). The returned error joins every failure
// observed before the batch drained; a nil result slice is returned on any
// error.
func RunBatch(ctx context.Context, exps []*Experiment, opts BatchOptions) ([]*Result, error) {
	for i, e := range exps {
		if e == nil || e.Run == nil {
			return nil, fmt.Errorf("exp: batch position %d: experiment is nil or has no Run", i)
		}
	}
	// Derive every plan up front: plan derivation is analytic (preset
	// resolution, exponent math), so a bad configuration fails before any
	// work is scheduled.
	plans := make([]*TaskPlan, len(exps))
	for i, e := range exps {
		p, err := e.plan(opts.Config)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}

	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex // guards the error slices and Stream writes
		failures  []error    // real failures
		canceled  []error    // cancellation fallout of the first real failure (or of ctx)
		results   = make([]*Result, len(exps))
		outs      = make([][]any, len(exps))
		remaining = make([]int32, len(exps))
	)
	fail := func(err error) {
		mu.Lock()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			canceled = append(canceled, err)
		} else {
			failures = append(failures, err)
		}
		mu.Unlock()
		cancel()
	}
	// finish reassembles experiment i once its last task completed. Outputs
	// are consumed by task position, so the result is independent of
	// completion order; only the NDJSON stream reflects finish order.
	finish := func(i int) {
		res, err := plans[i].Assemble(outs[i])
		if err != nil {
			fail(fmt.Errorf("exp: %s: assemble: %w", exps[i].Name, err))
			return
		}
		results[i] = res
		if opts.Stream != nil {
			mu.Lock()
			err = json.NewEncoder(opts.Stream).Encode(res)
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("exp: %s: stream: %w", exps[i].Name, err))
			}
		}
	}
	for i, p := range plans {
		outs[i] = make([]any, len(p.Tasks))
		remaining[i] = int32(len(p.Tasks))
		if len(p.Tasks) == 0 {
			finish(i) // an empty sweep assembles immediately
		}
	}
	state := &batchState{
		exps:  exps,
		plans: plans,
		cfg:   opts.Config,
		fail:  fail,
		deliver: func(exp, task int, out any) {
			outs[exp][task] = out
			if atomic.AddInt32(&remaining[exp], -1) == 0 {
				finish(exp)
			}
		},
	}

	var r runner = localRunner{jobs: opts.Jobs}
	if opts.Workers > 0 || len(opts.Remote) > 0 {
		p := &ProcRunner{
			Workers: opts.Workers,
			Command: opts.WorkerCommand,
			Env:     opts.WorkerEnv,
			Retry:   opts.WorkerRetry,
			OnStats: opts.OnWorkerStats,
		}
		for _, addr := range opts.Remote {
			p.Transports = append(p.Transports, &TCPTransport{
				Addr:        addr,
				TLS:         opts.RemoteTLS,
				ReadTimeout: opts.RemoteReadTimeout,
			})
		}
		r = p
	}
	r.runTasks(bctx, state)

	switch {
	case len(failures) > 0:
		return nil, errors.Join(failures...)
	case len(canceled) > 0:
		return nil, canceled[0]
	}
	// No task recorded an error, but a cancellation racing the final
	// completions may have kept queued tasks from ever starting.
	for _, res := range results {
		if res == nil {
			return nil, fmt.Errorf("exp: batch canceled: %w", context.Cause(bctx))
		}
	}
	return results, nil
}
