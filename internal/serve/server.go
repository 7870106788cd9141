// Package serve is the HTTP experiment service behind cmd/expd: the
// registry catalog, memoized canonical results, and streamed batches over
// one shared compute tier.
//
// The service composes pieces that already exist elsewhere in the module —
// it adds serving, not science. GET /v1/experiments returns exp.Catalog
// (byte-identical to `experiments -list -json`). GET /v1/experiments/{name}
// returns the canonical Result for (experiment, preset, seed), memoized
// through a disk-backed Store keyed by exp.ResultKey: a stored response is
// byte-identical to the file cmd/experiments -out writes for the same key,
// and a warm request performs zero computation and zero instance builds.
// Result responses carry a strong ETag (the quoted ResultKey); a request
// revalidating with If-None-Match is answered 304 before the store is
// touched. Identical concurrent cold requests are singleflighted — one computation,
// every waiter gets the same bytes — and the computation's context is
// canceled only when every waiting request has gone away. POST /v1/batch
// streams NDJSON results as experiments finish, reusing exp.RunBatch's
// emitter, and writes each result through to the store.
//
// Admission control bounds concurrent compute with a weighted semaphore
// whose unit is one schedulable task (sweep point): requests are weighted by
// their task count, a bounded queue absorbs bursts, and saturation returns
// 429 + Retry-After instead of queuing unboundedly. Request contexts (and
// per-request deadlines) propagate into exp.RunBatch's first-failure
// cancellation machinery. Every non-2xx response is a JSON envelope
// {"error": ..., "label": ...}; /healthz and /statsz expose liveness and the
// service's own telemetry (result-store and instance-cache counters,
// admission state, singleflight effectiveness).
package serve

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
)

// StatusClientClosedRequest is the nonstandard 499 status (nginx lineage)
// reported when the client abandoned a request before its result was ready.
const StatusClientClosedRequest = 499

// Defaults for Config zero values.
const (
	// DefaultMaxInFlight is the default admission capacity in task-weight
	// units (one unit = one schedulable sweep point).
	DefaultMaxInFlight = 64
	// DefaultMaxQueue is the default bound on requests waiting for
	// admission; beyond it the service sheds load with 429.
	DefaultMaxQueue = 8
	// DefaultRetryAfter is the default Retry-After hint on 429 responses.
	DefaultRetryAfter = time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Store is the disk-backed canonical-result store (required).
	Store *Store
	// MaxInFlight bounds concurrently admitted compute, in task-weight
	// units; <= 0 selects DefaultMaxInFlight.
	MaxInFlight int64
	// MaxQueue bounds requests waiting for admission; beyond it requests
	// are rejected with 429. < 0 selects DefaultMaxQueue; 0 means reject
	// immediately when full.
	MaxQueue int
	// Jobs is the in-process task parallelism of each admitted computation
	// (exp.BatchOptions.Jobs); <= 0 selects GOMAXPROCS. Ignored when Remote
	// is set.
	Jobs int
	// Remote, when non-empty, dispatches every admitted computation to these
	// `experiments worker -listen` TCP acceptors instead of computing in
	// process (exp.BatchOptions.Remote). Served bytes are identical either
	// way; the workers become the compute tier and this process stays an
	// orchestrator.
	Remote []string
	// RemoteTLS optionally wraps every remote worker connection in TLS
	// (exp.BatchOptions.RemoteTLS); see RemoteTLSConfig.
	RemoteTLS *tls.Config
	// WorkerRetry allows a crashed remote worker's tasks one rerun on a
	// fresh session before a request fails (exp.BatchOptions.WorkerRetry) —
	// a service in front of a worker fleet usually wants a single flaky
	// worker to cost latency, not the request.
	WorkerRetry bool
	// Timeout is the per-request compute ceiling; a request may lower it
	// via its timeout parameter but never raise it. 0 means no ceiling.
	Timeout time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses;
	// <= 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
}

// errorEnvelope is the JSON body of every non-2xx response (and of the
// trailing NDJSON line of a batch stream that failed mid-flight). Error
// carries the failure chain — for compute failures that is the batch
// runner's message, which embeds the failing task's label — and Label names
// the request-scoped unit the failure belongs to (the experiment name,
// "batch", or the offending parameter).
type errorEnvelope struct {
	Error string `json:"error"`
	Label string `json:"label,omitempty"`
}

// flight is one in-progress cold computation, shared by every request that
// arrived for its key while it ran. done is closed after the outcome fields
// are set; the flight is removed from the server's table first, so late
// requests start fresh instead of joining a finished flight.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int // waiting requests; the compute is canceled when it hits 0

	// Outcome (valid after done is closed): raw on success, else env+status.
	raw    []byte
	status int
	env    errorEnvelope
}

// Server is the experiment service. Construct with New; serve via Handler.
type Server struct {
	cfg  Config
	sem  *semaphore
	base context.Context
	stop context.CancelFunc

	mu      sync.Mutex
	flights map[string]*flight

	started time.Time

	catalogReqs  atomic.Uint64
	resultReqs   atomic.Uint64
	notModified  atomic.Uint64
	batchReqs    atomic.Uint64
	computes     atomic.Uint64
	flightLeads  atomic.Uint64
	flightJoins  atomic.Uint64
	storeServes  atomic.Uint64
	batchResults atomic.Uint64

	// The cumulative cross-shard traffic of freshly computed sharded
	// results. Stored results are canonical (the mechanics are stripped), so
	// these counters are the service's only view of what sharding cost.
	// /statsz reads them one by one, so a read racing a record may see
	// part of it.
	shardResults  atomic.Uint64
	boundaryEdges atomic.Int64
	crossed       atomic.Int64
}

// recordTraffic books a freshly computed result's cross-shard traffic.
// Results that ran unsharded (no traffic block) are skipped.
func (s *Server) recordTraffic(res *exp.Result) {
	if res == nil || res.ShardTraffic == nil {
		return
	}
	s.shardResults.Add(1)
	s.boundaryEdges.Add(res.ShardTraffic.BoundaryEdges)
	s.crossed.Add(res.ShardTraffic.MessagesCrossed)
}

// New validates cfg, applies defaults, and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	base, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		sem:     newSemaphore(cfg.MaxInFlight, cfg.MaxQueue),
		base:    base,
		stop:    stop,
		flights: make(map[string]*flight),
		started: time.Now(),
	}, nil
}

// Close cancels every in-flight computation. Call after the HTTP server has
// stopped accepting requests.
func (s *Server) Close() { s.stop() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleCatalog)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleResult)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// writeError emits the JSON error envelope with the mapped status code.
func (s *Server) writeError(w http.ResponseWriter, status int, env errorEnvelope) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.WriteHeader(status)
	raw, _ := json.MarshalIndent(env, "", "  ")
	w.Write(append(raw, '\n'))
}

// envelopeFor maps a failure to its status code and envelope: 400 for
// unknown experiments/presets (client named something the catalog doesn't
// have), 429 for admission saturation, 499/504 for canceled or
// deadline-exceeded computations, 500 otherwise.
func envelopeFor(err error, label string) (int, errorEnvelope) {
	env := errorEnvelope{Error: err.Error(), Label: label}
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests, env
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, env
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, env
	case errors.Is(err, exp.ErrNotFound):
		return http.StatusBadRequest, env
	default:
		return http.StatusInternalServerError, env
	}
}

// handleCatalog serves the machine-readable experiment catalog —
// byte-identical to `experiments -list -json`.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	s.catalogReqs.Add(1)
	raw, err := json.MarshalIndent(exp.Catalog(), "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, errorEnvelope{Error: err.Error(), Label: "catalog"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}

// runParams are the query parameters of GET /v1/experiments/{name}.
var runParams = []string{"preset", "seed", "parallel", "shards", "timeout"}

// maxConcurrency bounds a request's parallel and shards: each simulated run
// of a request starts up to min(value, n) − 1 goroutines, so one request
// must not ask for thousands. -1 selects GOMAXPROCS; 0 and 1 run
// sequentially.
const maxConcurrency = 64

// checkConcurrency rejects a parallel or shards value outside
// [-1, maxConcurrency]; the query and the batch body both go through it.
func checkConcurrency(cfg exp.RunConfig) error {
	for _, p := range []struct {
		name string
		v    int
	}{{"parallel", cfg.Parallelism}, {"shards", cfg.Shards}} {
		if p.v < -1 || p.v > maxConcurrency {
			return fmt.Errorf("%s %d: want a value from -1 (GOMAXPROCS) to %d", p.name, p.v, maxConcurrency)
		}
	}
	return nil
}

// parseRunConfig reads the shared run parameters (preset, seed, parallel,
// shards) plus the optional per-request timeout from query values. Any other
// key is an error, so a misspelt parameter cannot silently run a different
// computation, and so are parallel and shards outside checkConcurrency's
// range.
func parseRunConfig(q url.Values) (exp.RunConfig, time.Duration, error) {
	var cfg exp.RunConfig
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(runParams, k) {
			return cfg, 0, fmt.Errorf("unknown parameter %q: want %s", k, strings.Join(runParams, ", "))
		}
	}
	get := q.Get
	cfg.Preset = get("preset")
	var timeout time.Duration
	if v := get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, 0, fmt.Errorf("seed %q: %w", v, err)
		}
		cfg.Seed = seed
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"parallel", &cfg.Parallelism}, {"shards", &cfg.Shards}} {
		if v := get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, 0, fmt.Errorf("%s %q: %w", p.name, v, err)
			}
			*p.dst = n
		}
	}
	if err := checkConcurrency(cfg); err != nil {
		return cfg, 0, err
	}
	if v := get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return cfg, 0, fmt.Errorf("timeout %q: want a positive Go duration like 30s", v)
		}
		timeout = d
	}
	return cfg, timeout, nil
}

// effectiveTimeout combines the server ceiling with a per-request value:
// requests may lower the ceiling, never raise it.
func (s *Server) effectiveTimeout(req time.Duration) time.Duration {
	d := s.cfg.Timeout
	if req > 0 && (d == 0 || req < d) {
		d = req
	}
	return d
}

// planWeight is a request's admission weight: its schedulable task count
// (plan derivation is analytic — preset resolution and exponent math — so
// weighing a request computes nothing).
func planWeight(e *exp.Experiment, cfg exp.RunConfig) int64 {
	if e.Plan != nil {
		if p, err := e.Plan(cfg); err == nil {
			return int64(len(p.Tasks))
		}
	}
	return 1
}

// handleResult serves the canonical Result for one (experiment, preset,
// seed): from the store when warm, through a singleflighted admitted
// computation when cold.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.resultReqs.Add(1)
	name := r.PathValue("name")
	e, ok := exp.Lookup(name)
	if !ok {
		status, env := envelopeFor(exp.ErrUnknownExperiment(name), name)
		s.writeError(w, status, env)
		return
	}
	cfg, reqTimeout, err := parseRunConfig(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: err.Error(), Label: name})
		return
	}
	key, err := e.ResultKeyFor(cfg)
	if err != nil { // unknown preset
		s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: err.Error(), Label: name})
		return
	}
	// Canonical results are immutable — the ResultKey is a complete validator
	// — so a matching If-None-Match revalidates without touching the store,
	// let alone computing.
	if etag := resultETag(key); inmMatches(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Expd-Result-Key", key)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if raw, ok, err := s.cfg.Store.Get(key); err != nil {
		s.writeError(w, http.StatusInternalServerError, errorEnvelope{Error: err.Error(), Label: name})
		return
	} else if ok {
		s.storeServes.Add(1)
		s.writeResult(w, key, raw, "hit")
		return
	}

	f := s.joinFlight(key, e, cfg, s.effectiveTimeout(reqTimeout))
	defer s.leaveFlight(key, f)
	select {
	case <-f.done:
		if f.status != 0 {
			s.writeError(w, f.status, f.env)
			return
		}
		s.writeResult(w, key, f.raw, "miss")
	case <-r.Context().Done():
		// The client is gone (or the HTTP server is shutting down); the
		// deferred leaveFlight drops our reference, and the computation is
		// canceled once no request still wants it.
		status, env := envelopeFor(r.Context().Err(), name)
		s.writeError(w, status, env)
	}
}

// resultETag is the strong entity tag of a canonical result: the quoted
// ResultKey. The key names (experiment, preset, seed) and results are
// immutable once computed, so the tag never has to change.
func resultETag(key string) string { return `"` + key + `"` }

// inmMatches reports whether an If-None-Match header value matches etag:
// either the wildcard "*" or a list member equal to the tag (weak prefixes
// accepted — RFC 9110 prescribes weak comparison for If-None-Match).
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

// writeResult emits stored canonical bytes, labeling whether the store was
// warm ("hit") or the bytes were computed by this request's flight ("miss").
func (s *Server) writeResult(w http.ResponseWriter, key string, raw []byte, store string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", resultETag(key))
	w.Header().Set("X-Expd-Result-Key", key)
	w.Header().Set("X-Expd-Store", store)
	w.Write(raw)
}

// joinFlight returns the in-progress flight for key, starting one (as
// leader) when none exists. The caller must pair it with leaveFlight.
func (s *Server) joinFlight(key string, e *exp.Experiment, cfg exp.RunConfig, timeout time.Duration) *flight {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.refs++
		s.flightJoins.Add(1)
		s.mu.Unlock()
		return f
	}
	fctx, cancel := context.WithCancel(s.base)
	f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	s.flights[key] = f
	s.flightLeads.Add(1)
	s.mu.Unlock()
	go s.runFlight(fctx, f, key, e, cfg, timeout)
	return f
}

// leaveFlight drops one request's reference; the last leaver of an
// unfinished flight cancels its computation (nobody is waiting for it).
func (s *Server) leaveFlight(key string, f *flight) {
	s.mu.Lock()
	f.refs--
	if f.refs == 0 {
		select {
		case <-f.done:
		default:
			f.cancel()
		}
	}
	s.mu.Unlock()
}

// runFlight executes one cold computation: admission, compute, store
// write-through, and outcome publication to every waiter.
func (s *Server) runFlight(ctx context.Context, f *flight, key string, e *exp.Experiment, cfg exp.RunConfig, timeout time.Duration) {
	defer f.cancel()
	raw, status, env := s.computeResult(ctx, key, e, cfg, timeout)
	s.mu.Lock()
	delete(s.flights, key)
	f.raw, f.status, f.env = raw, status, env
	s.mu.Unlock()
	close(f.done)
}

// batchOptions is the execution backend every admitted computation runs
// under: the in-process pool by default, the configured remote TCP worker
// fleet when Config.Remote is set. Both compute byte-identical canonical
// results, so the store and every response are backend-agnostic.
func (s *Server) batchOptions(cfg exp.RunConfig) exp.BatchOptions {
	return exp.BatchOptions{
		Jobs:        s.cfg.Jobs,
		Remote:      s.cfg.Remote,
		RemoteTLS:   s.cfg.RemoteTLS,
		WorkerRetry: s.cfg.WorkerRetry,
		Config:      cfg,
	}
}

// computeResult runs e under cfg with admission control and persists the
// canonical result. On success it returns the stored bytes and status 0.
func (s *Server) computeResult(ctx context.Context, key string, e *exp.Experiment, cfg exp.RunConfig, timeout time.Duration) ([]byte, int, errorEnvelope) {
	release, err := s.sem.Acquire(ctx, planWeight(e, cfg))
	if err != nil {
		status, env := envelopeFor(err, e.Name)
		return nil, status, env
	}
	defer release()
	// A near-miss race (another request computed and stored this key while
	// we waited for admission) is served from disk instead of recomputed.
	if raw, ok, err := s.cfg.Store.Get(key); err == nil && ok {
		return raw, 0, errorEnvelope{}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	s.computes.Add(1)
	results, err := exp.RunBatch(ctx, []*exp.Experiment{e}, s.batchOptions(cfg))
	if err != nil {
		status, env := envelopeFor(err, e.Name)
		return nil, status, env
	}
	s.recordTraffic(results[0])
	raw, err := s.cfg.Store.Put(key, results[0])
	if err != nil {
		status, env := envelopeFor(err, e.Name)
		return nil, status, env
	}
	return raw, 0, errorEnvelope{}
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	// Experiments names the experiments to run, in request order. Empty, or
	// the single element "all", selects the whole catalog in registry order.
	Experiments []string `json:"experiments"`
	Preset      string   `json:"preset,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	Parallel    int      `json:"parallel,omitempty"`
	Shards      int      `json:"shards,omitempty"`
	// Timeout is a Go duration string bounding the whole batch; it may
	// lower the server ceiling, never raise it.
	Timeout string `json:"timeout,omitempty"`
}

// flushWriter flushes after every write so NDJSON lines reach the client as
// results complete, not when the response buffer fills.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleBatch streams NDJSON results as the batch's experiments finish
// (exp.RunBatch's emitter), writing each result through to the store. A
// failure after streaming began is reported as a final NDJSON error
// envelope line — the 200 header is already on the wire.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batchReqs.Add(1)
	var req batchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // a misspelt field must not run something else
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: "decoding request body: " + err.Error(), Label: "batch"})
		return
	}
	var reqTimeout time.Duration
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: fmt.Sprintf("timeout %q: want a positive Go duration like 30s", req.Timeout), Label: "batch"})
			return
		}
		reqTimeout = d
	}
	cfg := exp.RunConfig{Preset: req.Preset, Seed: req.Seed,
		Parallelism: req.Parallel, Shards: req.Shards}
	if err := checkConcurrency(cfg); err != nil {
		s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: err.Error(), Label: "batch"})
		return
	}

	var exps []*exp.Experiment
	if len(req.Experiments) == 0 || (len(req.Experiments) == 1 && req.Experiments[0] == "all") {
		exps = exp.List()
	} else {
		for _, name := range req.Experiments {
			e, ok := exp.Lookup(name)
			if !ok {
				status, env := envelopeFor(exp.ErrUnknownExperiment(name), name)
				s.writeError(w, status, env)
				return
			}
			exps = append(exps, e)
		}
	}
	// Validate presets (and derive admission weight) before any output, so
	// configuration mistakes get a clean 400 instead of a broken stream.
	var weight int64
	for _, e := range exps {
		if _, err := e.ResultKeyFor(cfg); err != nil {
			s.writeError(w, http.StatusBadRequest, errorEnvelope{Error: err.Error(), Label: e.Name})
			return
		}
		weight += planWeight(e, cfg)
	}

	ctx := r.Context()
	release, err := s.sem.Acquire(ctx, weight)
	if err != nil {
		status, env := envelopeFor(err, "batch")
		s.writeError(w, status, env)
		return
	}
	defer release()
	if d := s.effectiveTimeout(reqTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	stream := flushWriter{w: w, f: flusher}

	s.computes.Add(1)
	opts := s.batchOptions(cfg)
	opts.Stream = stream
	results, err := exp.RunBatch(ctx, exps, opts)
	if err != nil {
		// Mid-stream failure: deliver the envelope as the final NDJSON line.
		_, env := envelopeFor(err, "batch")
		raw, _ := json.Marshal(env)
		stream.Write(append(raw, '\n'))
		return
	}
	for _, res := range results {
		s.recordTraffic(res)
		if _, err := s.cfg.Store.Put(exp.ResultKey(res), res); err != nil {
			_, env := envelopeFor(err, "batch")
			raw, _ := json.Marshal(env)
			stream.Write(append(raw, '\n'))
			return
		}
		s.batchResults.Add(1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statszBody is the /statsz JSON document: the service's own telemetry.
type statszBody struct {
	UptimeMS float64 `json:"uptime_ms"`
	Requests struct {
		Catalog uint64 `json:"catalog"`
		Result  uint64 `json:"result"`
		// NotModified counts result requests revalidated by If-None-Match
		// (304, no store read, no computation).
		NotModified uint64 `json:"not_modified"`
		Batch       uint64 `json:"batch"`
		// Computes counts admitted computations (cold results and batches);
		// warm requests never compute.
		Computes uint64 `json:"computes"`
	} `json:"requests"`
	Singleflight struct {
		// Leaders counts cold computations started; Joined counts requests
		// that piggybacked on an identical in-flight computation.
		Leaders uint64 `json:"leaders"`
		Joined  uint64 `json:"joined"`
	} `json:"singleflight"`
	Admission struct {
		Capacity       int64  `json:"capacity"`
		InFlightWeight int64  `json:"in_flight_weight"`
		Queued         int    `json:"queued"`
		MaxQueue       int    `json:"max_queue"`
		Rejected       uint64 `json:"rejected"`
	} `json:"admission"`
	// ResultStore is the memoization layer; Hits counts requests served
	// without any computation.
	ResultStore StoreStats `json:"result_store"`
	// InstanceCache is the shared compute-tier cache every request's tasks
	// draw instances from (hit/miss/build-time, per-kind breakdown).
	InstanceCache inst.Stats `json:"instance_cache"`
	// ShardTraffic is the cumulative cross-shard traffic of freshly computed
	// sharded results; all zero until a sharded computation runs. Results
	// counts those results (warm store hits compute nothing and are not
	// counted), BoundaryEdges the tree edges crossing a shard boundary and
	// MessagesCrossed the simulator messages sent across one, summed over
	// them.
	ShardTraffic struct {
		Results         uint64 `json:"results"`
		BoundaryEdges   int64  `json:"boundary_edges"`
		MessagesCrossed int64  `json:"messages_crossed"`
	} `json:"shard_traffic"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var body statszBody
	body.UptimeMS = float64(time.Since(s.started).Microseconds()) / 1000
	body.Requests.Catalog = s.catalogReqs.Load()
	body.Requests.Result = s.resultReqs.Load()
	body.Requests.NotModified = s.notModified.Load()
	body.Requests.Batch = s.batchReqs.Load()
	body.Requests.Computes = s.computes.Load()
	body.Singleflight.Leaders = s.flightLeads.Load()
	body.Singleflight.Joined = s.flightJoins.Load()
	inUse, queued, rejected := s.sem.snapshot()
	body.Admission.Capacity = s.cfg.MaxInFlight
	body.Admission.InFlightWeight = inUse
	body.Admission.Queued = queued
	body.Admission.MaxQueue = s.cfg.MaxQueue
	body.Admission.Rejected = rejected
	body.ResultStore = s.cfg.Store.Stats()
	body.InstanceCache = exp.InstanceCache().Stats()
	body.ShardTraffic.Results = s.shardResults.Load()
	body.ShardTraffic.BoundaryEdges = s.boundaryEdges.Load()
	body.ShardTraffic.MessagesCrossed = s.crossed.Load()
	raw, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, errorEnvelope{Error: err.Error(), Label: "statsz"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}
