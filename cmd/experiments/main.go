// Command experiments runs registered experiments from the registry
// (internal/exp) and prints their result tables — plain text by default,
// GitHub-flavored markdown with -markdown (the source of the tables in
// docs/EXPERIMENTS.md), a machine-readable JSON array with -json, or an
// NDJSON stream with -ndjson.
//
// With no flags it regenerates every experiment of the index in
// docs/EXPERIMENTS.md at the standard preset, in the historical output order.
// -jobs N executes up to N tasks concurrently in process; -workers N
// instead dispatches tasks to N worker subprocesses over the NDJSON worker
// protocol (docs/DISTRIBUTED.md) with instance-affinity grouping. Aggregate
// output stays in registry order — and canonically byte-identical to a
// serial run — regardless of completion order, jobs, or worker count. -out
// persists canonical (elapsed-stripped) result JSON — one file per run
// under a directory, or a single array when the path ends in .json — and
// the compare subcommand diffs two such result sets as a regression check:
//
//	experiments compare [-tol 0.05] [-json] OLD NEW
//
// The worker subcommand is the worker side of both distributed backends.
// Bare, it speaks the worker protocol over stdin/stdout — the subprocess
// -workers spawns, not run by hand. With -listen it accepts orchestrator
// connections over TCP (optionally TLS with -tls-cert/-tls-key) and serves
// the same protocol on each; -remote host:port,... on the orchestrating
// process dispatches the batch to those acceptors instead of spawning
// subprocesses, with identical output bytes:
//
//	experiments worker
//	experiments worker -listen :9700
//
// Examples:
//
//	experiments -list
//	experiments -list -json
//	experiments -run twocoloring-gap -preset quick -json
//	experiments -run twocoloring-gap -shards 4
//	experiments -run all -preset quick -jobs 4 -out results/
//	experiments -run all -preset quick -workers 4 -cache-stats
//	experiments -run all -preset quick -remote host1:9700,host2:9700 -worker-retry
//	experiments -preset stress -markdown
//	experiments compare results-main/ results-branch/
package main

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/measure"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: compare:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		list       = flag.Bool("list", false, "list registered experiments and exit (with -json: machine-readable catalog)")
		run        = flag.String("run", "", `comma-separated experiment names ("" or "all": every experiment)`)
		preset     = flag.String("preset", "standard", "sweep preset: quick | standard | stress")
		jsonOut    = flag.Bool("json", false, "emit a JSON array of results (registry order)")
		ndjson     = flag.Bool("ndjson", false, "stream one JSON result per line as each experiment finishes (completion order)")
		markdown   = flag.Bool("markdown", false, "emit GitHub-flavored markdown")
		jobs       = flag.Int("jobs", 1, "number of tasks to run concurrently in process")
		workers    = flag.Int("workers", 0, "number of worker subprocesses: tasks are dispatched over the NDJSON worker protocol with instance-affinity grouping (0 = in-process; see docs/DISTRIBUTED.md); results are identical at every count")
		retry      = flag.Bool("worker-retry", false, "retry a crashed worker's tasks once on a fresh worker before failing the batch (requires -workers or -remote)")
		remote     = flag.String("remote", "", "comma-separated host:port addresses of `experiments worker -listen` acceptors: tasks are dispatched over TCP instead of to subprocesses; results are identical to every other backend")
		remoteCA   = flag.String("remote-ca", "", "verify TLS worker connections against this CA (or self-signed worker certificate) PEM file (requires -remote)")
		remoteRead = flag.Duration("remote-read-timeout", 0, "max silence on a remote worker connection before its slot fails labeled (0 = unbounded; requires -remote; see docs/DISTRIBUTED.md)")
		parallel   = flag.Int("parallel", 1, "simulator worker count (-1 = GOMAXPROCS)")
		shards     = flag.Int("shards", 0, "simulator shard count: partition each simulated tree into contiguous node-range shards (0/1 = unsharded, -1 = GOMAXPROCS); results are identical at every count")
		seed       = flag.Uint64("seed", 0, "override the experiments' default ID seeds (0 = defaults)")
		timeout    = flag.Duration("timeout", 0, "overall batch deadline (e.g. 90s, 10m); a run exceeding it fails labeled instead of hanging (0 = none)")
		out        = flag.String("out", "", "persist canonical results: a directory (one file per run) or a .json path (single array)")
		cacheStats = flag.Bool("cache-stats", false, "print instance-cache counters to stderr after the run")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := mainE(ctx, options{
		list: *list, run: *run, preset: *preset,
		jsonOut: *jsonOut, ndjson: *ndjson, markdown: *markdown,
		jobs: *jobs, workers: *workers, workerRetry: *retry,
		remote: *remote, remoteCA: *remoteCA, remoteRead: *remoteRead,
		parallel: *parallel, shards: *shards, seed: *seed,
		timeout: *timeout, out: *out, cacheStats: *cacheStats,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type options struct {
	list, jsonOut, ndjson, markdown, cacheStats bool
	workerRetry                                 bool
	run, preset, out                            string
	remote, remoteCA                            string
	jobs, workers, parallel, shards             int
	seed                                        uint64
	timeout, remoteRead                         time.Duration
}

func mainE(ctx context.Context, opts options) error {
	if opts.list {
		return printList(opts.jsonOut)
	}
	if opts.jsonOut && opts.ndjson {
		return fmt.Errorf("-json and -ndjson both write to stdout; pick one")
	}
	if opts.jobs > 1 && opts.workers > 0 {
		return fmt.Errorf("-jobs and -workers select different backends (in-process pool vs worker subprocesses); pick one")
	}
	var remotes []string
	if opts.remote != "" {
		if opts.workers > 0 {
			return fmt.Errorf("-workers and -remote select different backends (worker subprocesses vs TCP workers); pick one")
		}
		if opts.jobs > 1 {
			return fmt.Errorf("-jobs and -remote select different backends (in-process pool vs TCP workers); pick one")
		}
		for _, addr := range strings.Split(opts.remote, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				remotes = append(remotes, addr)
			}
		}
		if len(remotes) == 0 {
			return fmt.Errorf("-remote selected no worker addresses")
		}
	} else {
		// Without the backend it tunes, a worker option would be silently
		// ignored.
		switch {
		case opts.remoteCA != "":
			return fmt.Errorf("-remote-ca requires -remote")
		case opts.remoteRead != 0:
			return fmt.Errorf("-remote-read-timeout requires -remote")
		case opts.workerRetry && opts.workers <= 0:
			return fmt.Errorf("-worker-retry requires -workers or -remote")
		}
	}
	exps, err := selectExperiments(opts.run)
	if err != nil {
		return err
	}
	if opts.timeout > 0 {
		// The deadline wraps the whole batch: RunBatch's first-failure
		// machinery cancels every in-flight task when it expires, so a hung
		// run fails labeled instead of forever. The expd service reuses the
		// same plumbing for per-request deadlines.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	batch := repro.BatchOptions{
		Jobs:              opts.jobs,
		Workers:           opts.workers,
		WorkerRetry:       opts.workerRetry,
		Remote:            remotes,
		RemoteReadTimeout: opts.remoteRead,
		Config: repro.RunConfig{Preset: opts.preset, Seed: opts.seed,
			Parallelism: opts.parallel, Shards: opts.shards},
	}
	if opts.remoteCA != "" {
		tlsCfg, err := repro.RemoteTLSConfig(opts.remoteCA)
		if err != nil {
			return err
		}
		batch.RemoteTLS = tlsCfg
	}
	if opts.ndjson {
		batch.Stream = os.Stdout
	}
	usesWorkers := opts.workers > 0 || len(remotes) > 0
	var workerStats []repro.WorkerStats
	if usesWorkers && opts.cacheStats {
		// With subprocess or remote workers the orchestrator's own cache
		// sits idle; collect each worker's shutdown snapshot instead.
		batch.OnWorkerStats = func(ws repro.WorkerStats) { workerStats = append(workerStats, ws) }
	}
	results, err := repro.RunBatch(ctx, exps, batch)
	if opts.cacheStats {
		if usesWorkers {
			printWorkerStats(workerStats)
		} else {
			printCacheStats()
		}
	}
	if err != nil {
		if opts.timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("batch timed out after %v: %w", opts.timeout, err)
		}
		return err
	}
	if opts.out != "" {
		if err := repro.WriteResults(opts.out, results); err != nil {
			return err
		}
	}
	switch {
	case opts.jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	case opts.ndjson:
		return nil // already streamed
	}
	for _, res := range results {
		for _, tb := range res.Tables {
			if opts.markdown {
				fmt.Println(tb.Markdown())
			} else {
				fmt.Println(tb.Format())
			}
		}
	}
	return nil
}

// workerMain implements `experiments worker [-listen addr]`. Without
// -listen it speaks the worker protocol over stdin/stdout — the subprocess
// side of -workers, spawned by the orchestrating experiments process. With
// -listen it becomes a TCP worker acceptor: it binds addr, announces the
// bound address on stdout as "listening host:port", and serves one worker
// session per connection until interrupted — the remote side of -remote.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", "", "accept orchestrator connections on this TCP address (e.g. :9700) instead of speaking over stdin/stdout")
	tlsCert := fs.String("tls-cert", "", "serve TLS with this certificate file (requires -listen and -tls-key)")
	tlsKey := fs.String("tls-key", "", "serve TLS with this key file (requires -listen and -tls-cert)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments worker [-listen addr [-tls-cert CERT -tls-key KEY]]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if (*tlsCert != "") != (*tlsKey != "") {
		return fmt.Errorf("-tls-cert and -tls-key go together")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *listen == "" {
		if *tlsCert != "" {
			return fmt.Errorf("-tls-cert/-tls-key require -listen")
		}
		return repro.RunWorker(ctx, os.Stdin, os.Stdout)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *tlsCert != "" {
		cfg, err := repro.WorkerTLSConfig(*tlsCert, *tlsKey)
		if err != nil {
			_ = l.Close()
			return err
		}
		l = tls.NewListener(l, cfg)
	}
	// The banner is machine-parseable (scripts bind :0 and read the port)
	// and the only thing this mode ever writes to stdout.
	fmt.Printf("listening %s\n", l.Addr())
	return repro.ServeWorker(ctx, l)
}

// compareMain implements `experiments compare [-tol T] [-json] OLD NEW`:
// load two persisted result sets and flag drift. Exit status 1 (via the
// returned error) when any drift is found.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	tol := fs.Float64("tol", 0.05, "allowed fitted-slope drift before a run is flagged")
	jsonOut := fs.Bool("json", false, "emit drifts as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments compare [-tol T] [-json] OLD NEW")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("need exactly two result sets, got %d", fs.NArg())
	}
	base, err := repro.LoadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := repro.LoadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	drifts := repro.CompareResults(base, cur, *tol)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(drifts); err != nil {
			return err
		}
	} else if len(drifts) == 0 {
		fmt.Printf("no drift: %d runs match within tol %.4g\n", len(base), *tol)
	} else {
		tb := measure.Table{
			Title:  fmt.Sprintf("result drift (tol %.4g)", *tol),
			Header: []string{"run", "field", "old", "new", "detail"},
		}
		for _, d := range drifts {
			tb.AddRow(d.Key, d.Field, d.Old, d.New, d.Detail)
		}
		fmt.Println(tb.Format())
	}
	if len(drifts) > 0 {
		return fmt.Errorf("%d drift(s) beyond tolerance", len(drifts))
	}
	return nil
}

func printCacheStats() {
	s := repro.InstanceCacheStats()
	fmt.Fprintf(os.Stderr,
		"instance cache: %d hits, %d misses (%d builds, %d coalesced), %d evictions, %.1fms building, %d entries / %d nodes cached\n",
		s.Hits, s.Misses, s.Builds, s.Coalesced, s.Evictions,
		float64(s.BuildTime.Microseconds())/1000, s.Entries, s.Nodes)
	// Per-kind breakdown in stable order: the bare tree builds first, then
	// the composite weighted/weight-augmented entries.
	for _, kind := range repro.InstanceCacheKinds() {
		ks, ok := s.Kinds[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr,
			"  %-12s %d builds, %d hits, %.1fms building, %d entries / %d nodes\n",
			kind, ks.Builds, ks.Hits,
			float64(ks.BuildTime.Microseconds())/1000, ks.Entries, ks.Nodes)
	}
}

// printWorkerStats renders each worker subprocess's shutdown cache
// snapshot: with affinity dispatch, tasks sharing a hierarchical core show
// up as one worker's builds plus hits instead of duplicate builds spread
// across processes.
func printWorkerStats(stats []repro.WorkerStats) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Worker < stats[j].Worker })
	for _, ws := range stats {
		who := fmt.Sprintf("worker %d", ws.Worker)
		if ws.Addr != "" {
			who = "worker " + ws.Addr
		}
		s := ws.Cache
		fmt.Fprintf(os.Stderr,
			"%s: %d tasks; instance cache: %d hits, %d misses (%d builds), %.1fms building, %d entries / %d nodes cached\n",
			who, ws.Tasks, s.Hits, s.Misses, s.Builds,
			float64(s.BuildTime.Microseconds())/1000, s.Entries, s.Nodes)
	}
}

// selectExperiments resolves -run against the registry; empty or "all"
// means every experiment, in registration (historical output) order.
func selectExperiments(run string) ([]*repro.Experiment, error) {
	if run == "" || run == "all" {
		return repro.Experiments(), nil
	}
	var out []*repro.Experiment
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := repro.LookupExperiment(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no experiments")
	}
	return out, nil
}

// presetNames renders the presets an experiment actually registered,
// canonical names first, any custom names after in sorted order.
func presetNames(presets map[string][]int) string {
	if len(presets) == 0 {
		return "-"
	}
	var names []string
	for _, p := range []string{"quick", "standard", "stress"} {
		if _, ok := presets[p]; ok {
			names = append(names, p)
		}
	}
	var extra []string
	for p := range presets {
		if p != "quick" && p != "standard" && p != "stress" {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return strings.Join(append(names, extra...), "|")
}

func printList(jsonOut bool) error {
	if jsonOut {
		// repro.Catalog is the shared machine-readable catalog; the expd
		// service serves the same value at GET /v1/experiments, and CI
		// cmp-checks the two outputs byte-for-byte.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(repro.Catalog())
	}
	tb := measure.Table{
		Title:  "registered experiments",
		Header: []string{"name", "theory", "presets", "description"},
	}
	for _, e := range repro.Experiments() {
		tb.AddRow(e.Name, e.Theory, presetNames(e.Presets), e.Description)
	}
	fmt.Println(tb.Format())
	return nil
}
