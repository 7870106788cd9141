// Command expd is the long-running HTTP experiment service: the registry
// catalog, memoized canonical results, and streamed batch queries over one
// shared instance cache, with admission control (docs/SERVICE.md).
//
// Endpoints:
//
//	GET  /v1/experiments                 machine-readable catalog (same JSON as `experiments -list -json`)
//	GET  /v1/experiments/{name}          canonical Result, memoized in the result store
//	     ?preset=&seed=&parallel=&shards=&timeout=
//	POST /v1/batch                       NDJSON stream of results as experiments finish
//	GET  /healthz                        liveness
//	GET  /statsz                         service telemetry (stores, caches, admission)
//
// A served result is byte-identical to the canonical JSON cmd/experiments
// -out writes for the same (experiment, preset, seed); the store directory
// is interchangeable with a -out directory, so either tool can warm the
// other. Non-2xx responses are JSON envelopes {"error": ..., "label": ...}.
//
// The loadtest subcommand measures the service under concurrent clients
// (cold vs. warm result store) and prints a JSON report; the committed
// BENCH_expd.json is one such run:
//
//	expd loadtest -experiment twocoloring-gap -preset quick -requests 32 -concurrency 1,8 -out BENCH_expd.json
//
// Examples:
//
//	expd -addr :8080 -store expd-store
//	curl localhost:8080/v1/experiments
//	curl 'localhost:8080/v1/experiments/twocoloring-gap?preset=quick'
//	curl -X POST -d '{"experiments":["survivors"],"preset":"quick"}' localhost:8080/v1/batch
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		if err := loadtestMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "expd: loadtest:", err)
			os.Exit(1)
		}
		return
	}
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeDir   = flag.String("store", "expd-store", "result-store directory (interchangeable with a cmd/experiments -out directory)")
		inflight   = flag.Int64("max-inflight", serve.DefaultMaxInFlight, "admission capacity in task-weight units (one unit = one sweep point)")
		maxQueue   = flag.Int("max-queue", serve.DefaultMaxQueue, "requests allowed to wait for admission before the service sheds with 429")
		jobs       = flag.Int("jobs", 0, "task parallelism per admitted computation (0 = GOMAXPROCS; ignored with -remote)")
		timeout    = flag.Duration("timeout", 0, "per-request compute ceiling; requests may lower it via ?timeout=, never raise it (0 = none)")
		retryAfter = flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to 429 responses")
		remote     = flag.String("remote", "", "comma-separated host:port addresses of `experiments worker -listen` acceptors: admitted computations dispatch to this fleet instead of computing in process")
		remoteCA   = flag.String("remote-ca", "", "verify TLS worker connections against this CA (or self-signed worker certificate) PEM file (requires -remote)")
		retry      = flag.Bool("worker-retry", false, "retry a crashed remote worker's tasks once on a fresh session before a request fails (requires -remote)")
	)
	flag.Parse()
	cfg := serve.Config{
		MaxInFlight: *inflight,
		MaxQueue:    *maxQueue,
		Jobs:        *jobs,
		Timeout:     *timeout,
		RetryAfter:  *retryAfter,
		WorkerRetry: *retry,
	}
	for _, a := range strings.Split(*remote, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Remote = append(cfg.Remote, a)
		}
	}
	if *retry && len(cfg.Remote) == 0 {
		fmt.Fprintln(os.Stderr, "expd: -worker-retry requires -remote")
		os.Exit(1)
	}
	if *remoteCA != "" {
		if len(cfg.Remote) == 0 {
			fmt.Fprintln(os.Stderr, "expd: -remote-ca requires -remote")
			os.Exit(1)
		}
		tlsCfg, err := repro.RemoteTLSConfig(*remoteCA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "expd:", err)
			os.Exit(1)
		}
		cfg.RemoteTLS = tlsCfg
	}
	if err := serveMain(*addr, *storeDir, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "expd:", err)
		os.Exit(1)
	}
}

func serveMain(addr, storeDir string, cfg serve.Config) error {
	store, err := serve.NewStore(storeDir)
	if err != nil {
		return err
	}
	cfg.Store = store
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if len(cfg.Remote) > 0 {
		fmt.Fprintf(os.Stderr, "expd: serving on %s (store %s; remote workers %s)\n", addr, storeDir, strings.Join(cfg.Remote, ","))
	} else {
		fmt.Fprintf(os.Stderr, "expd: serving on %s (store %s)\n", addr, storeDir)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, give in-flight responses a moment,
	// then cancel any remaining computations.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "expd: shut down")
	return nil
}

// loadtestMain implements `expd loadtest`: boot an in-process service and
// measure cold vs. warm phases at each requested concurrency level.
func loadtestMain(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	experiment := fs.String("experiment", "twocoloring-gap", "experiment to query")
	preset := fs.String("preset", "quick", "preset to query")
	requests := fs.Int("requests", 32, "requests per phase per concurrency level")
	concurrency := fs.String("concurrency", "1,8", "comma-separated client concurrency levels")
	jobs := fs.Int("jobs", 0, "server-side task parallelism per computation (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the JSON report here instead of stdout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: expd loadtest [-experiment E] [-preset P] [-requests N] [-concurrency 1,8] [-out FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	var levels []int
	for _, part := range strings.Split(*concurrency, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 1 {
			return fmt.Errorf("bad concurrency level %q", part)
		}
		levels = append(levels, c)
	}
	if len(levels) == 0 {
		return errors.New("-concurrency selected no levels")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	report, err := serve.LoadTest(ctx, serve.LoadOptions{
		Experiment:  *experiment,
		Preset:      *preset,
		Requests:    *requests,
		Concurrency: levels,
		Jobs:        *jobs,
		Log:         os.Stderr,
	})
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out != "" {
		return os.WriteFile(*out, raw, 0o644)
	}
	_, err = os.Stdout.Write(raw)
	return err
}
