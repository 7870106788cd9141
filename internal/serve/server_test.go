package serve

// The service contract tests: catalog and result byte-identity with the
// cmd/experiments outputs, the warm path (store hit, zero computation, zero
// instance builds), singleflight coalescing of identical cold requests,
// admission saturation (429, never unbounded queuing), the JSON error
// envelope with its status mapping, batch NDJSON streaming with store
// write-through, request-context propagation into compute cancellation, and
// the /statsz shard-traffic counters.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/measure"
)

// newTestServer boots a Server over a fresh store with the given config
// tweaks and returns it with its HTTP test frontend.
func newTestServer(t *testing.T, tweak func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	store, err := NewStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Jobs: 2}
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// registerServeExp registers a throwaway experiment under a unique
// test-serve- name (the test- prefix keeps it out of CatalogHash). The run
// function receives the resolved preset/seed pre-stamped result to fill in.
func registerServeExp(t *testing.T, name string, run func(ctx context.Context, res *exp.Result) error) string {
	t.Helper()
	full := "test-serve-" + name
	e := &exp.Experiment{
		Name:        full,
		Description: "serve test fixture",
		DefaultSeed: 7,
	}
	e.Run = func(ctx context.Context, cfg exp.RunConfig) (*exp.Result, error) {
		preset := cfg.Preset
		if preset == "" {
			preset = exp.PresetStandard
		}
		seed := cfg.Seed
		if seed == 0 {
			seed = e.DefaultSeed
		}
		res := &exp.Result{
			Schema: exp.SchemaVersion,
			Name:   full,
			Preset: preset,
			Seed:   seed,
			Tables: []measure.Table{{Title: full, Header: []string{"k", "v"}}},
		}
		if err := run(ctx, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := exp.Register(e); err != nil {
		t.Fatal(err)
	}
	return full
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func decodeEnvelope(t *testing.T, raw []byte) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("response %q is not a JSON envelope: %v", raw, err)
	}
	if env.Error == "" {
		t.Fatalf("envelope %q has an empty error field", raw)
	}
	return env
}

// TestCatalogEndpoint: GET /v1/experiments returns exactly the
// exp.Catalog JSON that `experiments -list -json` prints.
func TestCatalogEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, hdr, raw := get(t, ts.URL+"/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", status, raw)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	want, err := json.MarshalIndent(exp.Catalog(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(raw, want) {
		t.Fatal("served catalog differs from exp.Catalog JSON")
	}
	var entries []exp.CatalogEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 18 {
		t.Fatalf("catalog has %d entries, want the full registry (>= 18)", len(entries))
	}
}

// TestResultByteIdenticalToWriteResults: the served body for a real
// experiment is byte-identical to the canonical per-result file
// cmd/experiments -out would write for the same (experiment, preset, seed),
// and a repeat request serves the identical bytes from the store.
func TestResultByteIdenticalToWriteResults(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const name, preset = "survivors", "quick"

	status, hdr, raw := get(t, ts.URL+"/v1/experiments/"+name+"?preset="+preset)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, raw)
	}
	if s := hdr.Get("X-Expd-Store"); s != "miss" {
		t.Fatalf("first request store header = %q, want miss", s)
	}

	// The reference bytes: the same run through the cmd/experiments
	// persistence path (serial RunBatch + WriteResults directory form).
	e, ok := exp.Lookup(name)
	if !ok {
		t.Fatalf("experiment %s not registered", name)
	}
	cfg := exp.RunConfig{Preset: preset}
	results, err := exp.RunBatch(context.Background(), []*exp.Experiment{e}, exp.BatchOptions{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "out")
	if err := exp.WriteResults(outDir, results); err != nil {
		t.Fatal(err)
	}
	key, err := e.ResultKeyFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(outDir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("served result differs from the canonical %s.json written by WriteResults", key)
	}

	status, hdr, raw2 := get(t, ts.URL+"/v1/experiments/"+name+"?preset="+preset)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d", status)
	}
	if s := hdr.Get("X-Expd-Store"); s != "hit" {
		t.Fatalf("repeat request store header = %q, want hit", s)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("warm bytes differ from cold bytes")
	}
}

// TestResultOverRemoteWorkersByteIdentical: a service configured with
// Config.Remote dispatches its computations to TCP workers and serves
// bytes identical to an in-process service — the compute tier is
// interchangeable underneath the store.
func TestResultOverRemoteWorkersByteIdentical(t *testing.T) {
	const name, preset = "survivors", "quick"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = exp.ServeWorker(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})

	_, local := newTestServer(t, nil)
	_, remote := newTestServer(t, func(c *Config) {
		c.Remote = []string{l.Addr().String()}
		c.WorkerRetry = true
	})

	status, _, want := get(t, local.URL+"/v1/experiments/"+name+"?preset="+preset)
	if status != http.StatusOK {
		t.Fatalf("in-process status = %d: %s", status, want)
	}
	status, hdr, got := get(t, remote.URL+"/v1/experiments/"+name+"?preset="+preset)
	if status != http.StatusOK {
		t.Fatalf("remote-workers status = %d: %s", status, got)
	}
	if s := hdr.Get("X-Expd-Store"); s != "miss" {
		t.Fatalf("remote request store header = %q, want miss (computed on the worker)", s)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result computed over remote TCP workers differs from the in-process bytes")
	}
}

// TestResultETagRevalidation: /v1/experiments/{name} responses carry a
// strong ETag (the quoted ResultKey), and a request presenting it via
// If-None-Match is answered 304 before the store is read — zero store
// traffic, zero computation. A stale tag still gets the full body.
func TestResultETagRevalidation(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/experiments/survivors?preset=quick"

	status, hdr, raw := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("cold status = %d: %s", status, raw)
	}
	etag := hdr.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong tag", etag)
	}
	if want := `"` + hdr.Get("X-Expd-Result-Key") + `"`; etag != want {
		t.Fatalf("ETag = %q, want quoted result key %q", etag, want)
	}

	hitsBefore := srv.cfg.Store.Stats().Hits
	computesBefore := srv.computes.Load()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304 (%s)", resp.StatusCode, body)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}
	if d := srv.cfg.Store.Stats().Hits - hitsBefore; d != 0 {
		t.Fatalf("revalidation read the store %d times, want 0", d)
	}
	if d := srv.computes.Load() - computesBefore; d != 0 {
		t.Fatalf("revalidation ran %d computations, want 0", d)
	}
	if srv.notModified.Load() != 1 {
		t.Fatalf("notModified counter = %d, want 1", srv.notModified.Load())
	}

	// A stale (non-matching) validator falls through to the full response.
	req.Header.Set("If-None-Match", `"stale-tag"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-tag status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(body, raw) {
		t.Fatal("stale-tag response differs from the original bytes")
	}
}

// TestWarmRequestBuildsNothing mirrors TestWarmCacheRepeatBuildsNothing at
// the service layer: a repeated request is absorbed by the result store —
// zero computations and zero instance builds.
func TestWarmRequestBuildsNothing(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/experiments/twocoloring-gap?preset=quick"
	if status, _, raw := get(t, url); status != http.StatusOK {
		t.Fatalf("cold status = %d: %s", status, raw)
	}
	buildsBefore := exp.InstanceCache().Stats().Builds
	computesBefore := srv.computes.Load()
	hitsBefore := srv.cfg.Store.Stats().Hits

	if status, hdr, _ := get(t, url); status != http.StatusOK {
		t.Fatalf("warm status = %d", status)
	} else if s := hdr.Get("X-Expd-Store"); s != "hit" {
		t.Fatalf("warm store header = %q, want hit", s)
	}

	if d := exp.InstanceCache().Stats().Builds - buildsBefore; d != 0 {
		t.Fatalf("warm request performed %d instance builds, want 0", d)
	}
	if d := srv.computes.Load() - computesBefore; d != 0 {
		t.Fatalf("warm request ran %d computations, want 0", d)
	}
	if d := srv.cfg.Store.Stats().Hits - hitsBefore; d != 1 {
		t.Fatalf("store hits advanced by %d, want 1", d)
	}
}

// TestStatszShardTraffic: /statsz shard_traffic starts at zero, a cold
// sharded compute feeds it, and an unsharded cold compute or a store hit
// leaves it unchanged.
func TestStatszShardTraffic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	traffic := func() (results uint64, boundary, crossed int64) {
		t.Helper()
		status, _, raw := get(t, ts.URL+"/statsz")
		if status != http.StatusOK {
			t.Fatalf("statsz status = %d: %s", status, raw)
		}
		var body statszBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		st := body.ShardTraffic
		return st.Results, st.BoundaryEdges, st.MessagesCrossed
	}
	fetch := func(query, store string) {
		t.Helper()
		status, hdr, raw := get(t, ts.URL+"/v1/experiments/twocoloring-gap?preset=quick"+query)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", query, status, raw)
		}
		if s := hdr.Get("X-Expd-Store"); s != store {
			t.Fatalf("%s: store header = %q, want %s", query, s, store)
		}
	}

	if r, b, c := traffic(); r != 0 || b != 0 || c != 0 {
		t.Fatalf("fresh server traffic = (%d, %d, %d), want zero", r, b, c)
	}
	fetch("&shards=2", "miss")
	results, boundary, crossed := traffic()
	if results != 1 || boundary <= 0 {
		t.Fatalf("after a sharded cold compute: results = %d, boundary edges = %d; want 1 and > 0", results, boundary)
	}
	fetch("&seed=5", "miss")
	fetch("&shards=2", "hit")
	if r, b, c := traffic(); r != results || b != boundary || c != crossed {
		t.Fatalf("unsharded compute or store hit moved traffic: (%d, %d, %d) -> (%d, %d, %d)",
			results, boundary, crossed, r, b, c)
	}
}

// TestSingleflightColdComputesOnce: identical concurrent cold requests
// share one computation and all receive the same bytes.
func TestSingleflightColdComputesOnce(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerServeExp(t, "singleflight", func(ctx context.Context, res *exp.Result) error {
		if runs.Add(1) == 1 {
			close(started)
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	url := ts.URL + "/v1/experiments/" + name

	const clients = 6
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[0], _, bodies[0] = get(t, url)
	}()
	<-started // the leader is computing; everyone else must join its flight
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, bodies[i] = get(t, url)
		}(i)
	}
	// Wait until every follower has joined before releasing the compute.
	deadline := time.Now().Add(5 * time.Second)
	for srv.flightJoins.Load() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined the flight", srv.flightJoins.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d status = %d (%s)", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times, want 1 (singleflight)", n)
	}
}

// TestSaturationReturns429: with capacity 1 and no queue, a request
// arriving while compute is busy is shed with 429 + Retry-After and the
// envelope, not queued; after the running request finishes, service resumes.
func TestSaturationReturns429(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 0
		c.RetryAfter = 2 * time.Second
	})
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := registerServeExp(t, "saturate-a", func(ctx context.Context, res *exp.Result) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	quick := registerServeExp(t, "saturate-b", func(ctx context.Context, res *exp.Result) error {
		return nil
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if status, _, raw := get(t, ts.URL+"/v1/experiments/"+blocker); status != http.StatusOK {
			t.Errorf("blocker status = %d: %s", status, raw)
		}
	}()
	<-started

	status, hdr, raw := get(t, ts.URL+"/v1/experiments/"+quick)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", status, raw)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	env := decodeEnvelope(t, raw)
	if env.Label != quick {
		t.Fatalf("envelope label = %q, want %q", env.Label, quick)
	}
	if _, _, rejected := srv.sem.snapshot(); rejected == 0 {
		t.Fatal("admission rejected counter did not advance")
	}

	close(release)
	<-done
	if status, _, raw := get(t, ts.URL+"/v1/experiments/"+quick); status != http.StatusOK {
		t.Fatalf("post-saturation status = %d: %s", status, raw)
	}
}

// TestErrorEnvelopeStatusCodes: the envelope and status mapping for bad
// requests and compute deadline expiry.
func TestErrorEnvelopeStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, nil)
	slow := registerServeExp(t, "timeout", func(ctx context.Context, res *exp.Result) error {
		<-ctx.Done()
		return ctx.Err()
	})

	cases := []struct {
		name   string
		url    string
		status int
		label  string
	}{
		{"unknown experiment", "/v1/experiments/no-such-exp", http.StatusBadRequest, "no-such-exp"},
		{"unknown preset", "/v1/experiments/survivors?preset=bogus", http.StatusBadRequest, "survivors"},
		{"bad seed", "/v1/experiments/survivors?seed=banana", http.StatusBadRequest, "survivors"},
		{"bad shards", "/v1/experiments/survivors?shards=lots", http.StatusBadRequest, "survivors"},
		{"parallel above the bound", "/v1/experiments/survivors?parallel=100000", http.StatusBadRequest, "survivors"},
		{"shards below -1", "/v1/experiments/survivors?shards=-2", http.StatusBadRequest, "survivors"},
		{"bad timeout", "/v1/experiments/survivors?timeout=-3", http.StatusBadRequest, "survivors"},
		{"unknown parameter", "/v1/experiments/survivors?preset=quick&shard=2", http.StatusBadRequest, "survivors"},
		{"removed parameter", "/v1/experiments/survivors?preset=quick&shard-layout=subtree", http.StatusBadRequest, "survivors"},
		{"deadline exceeded", "/v1/experiments/" + slow + "?timeout=50ms", http.StatusGatewayTimeout, slow},
	}
	for _, tc := range cases {
		status, _, raw := get(t, ts.URL+tc.url)
		if status != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.status, raw)
			continue
		}
		if env := decodeEnvelope(t, raw); env.Label != tc.label {
			t.Errorf("%s: label = %q, want %q", tc.name, env.Label, tc.label)
		}
	}
}

// TestBatchStreamsAndWritesThrough: POST /v1/batch streams one NDJSON line
// per experiment and persists every canonical result in the store.
func TestBatchStreamsAndWritesThrough(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	body := `{"experiments":["survivors","pathlcl-classify"],"preset":"quick"}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want 2:\n%s", len(lines), raw)
	}
	for _, line := range lines {
		var res exp.Result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if res.Name == "" || len(res.Tables) == 0 {
			t.Fatalf("line %q is not a result", line)
		}
		key := exp.ResultKey(&res)
		if _, ok, err2 := srv.cfg.Store.Get(key); err2 != nil || !ok {
			t.Fatalf("store missing write-through for %s (ok=%v err=%v)", key, ok, err2)
		}
	}
}

// TestBatchUnknownExperiment: a bad batch body fails with the envelope
// before any streaming begins.
func TestBatchUnknownExperiment(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"experiments":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, raw)
	}
	if env := decodeEnvelope(t, raw); env.Label != "nope" {
		t.Fatalf("label = %q, want nope", env.Label)
	}
}

// TestBatchRejectsUnknownFields: a batch body with a field the service does
// not read fails with the envelope before anything runs, instead of running
// with that field's default.
func TestBatchRejectsUnknownFields(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, body := range []string{
		`{"experiments":["survivors"],"presett":"quick"}`,
		`{"experiments":["survivors"],"preset":"quick","shard_layout":"subtree"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
		if env := decodeEnvelope(t, raw); env.Label != "batch" || !strings.Contains(env.Error, "unknown field") {
			t.Fatalf("%s: envelope %+v, want the batch label and the unknown field", body, env)
		}
	}
	if n := srv.computes.Load(); n != 0 {
		t.Fatalf("%d computes for rejected batches, want 0", n)
	}
}

// TestBatchRejectsConcurrencyOutOfRange: a batch body whose parallel or
// shards lies outside [-1, maxConcurrency] fails with the envelope before
// anything runs.
func TestBatchRejectsConcurrencyOutOfRange(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, body := range []string{
		`{"experiments":["survivors"],"preset":"quick","shards":100000}`,
		`{"experiments":["survivors"],"preset":"quick","parallel":-2}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
		if env := decodeEnvelope(t, raw); env.Label != "batch" || !strings.Contains(env.Error, "want a value from -1") {
			t.Fatalf("%s: envelope %+v, want the batch label and the allowed range", body, env)
		}
	}
	if n := srv.computes.Load(); n != 0 {
		t.Fatalf("%d computes for rejected batches, want 0", n)
	}
}

// TestBatchMidStreamFailure: a task failure after streaming began is
// delivered as a trailing NDJSON error-envelope line carrying the batch
// runner's labeled error.
func TestBatchMidStreamFailure(t *testing.T) {
	_, ts := newTestServer(t, nil)
	failing := registerServeExp(t, "batch-fail", func(ctx context.Context, res *exp.Result) error {
		return fmt.Errorf("synthetic task failure")
	})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(fmt.Sprintf(`{"experiments":[%q]}`, failing)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	last := lines[len(lines)-1]
	env := decodeEnvelope(t, last)
	if !strings.Contains(env.Error, "synthetic task failure") {
		t.Fatalf("trailing envelope %q does not carry the task failure", last)
	}
	if env.Label != "batch" {
		t.Fatalf("trailing envelope label = %q, want batch", env.Label)
	}
}

// TestClientDisconnectCancelsCompute: when every request waiting on a cold
// computation goes away, the computation's context is canceled (request
// contexts propagate into the batch runner's cancellation machinery).
func TestClientDisconnectCancelsCompute(t *testing.T) {
	_, ts := newTestServer(t, nil)
	started := make(chan struct{})
	canceled := make(chan struct{})
	name := registerServeExp(t, "disconnect", func(ctx context.Context, res *exp.Result) error {
		close(started)
		<-ctx.Done()
		close(canceled)
		return ctx.Err()
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/experiments/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-started
	cancel() // the only client disconnects
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context not canceled after the last client left")
	}
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
}
