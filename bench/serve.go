package main

// serve-mixed: the HTTP service on a loopback listener under two open-loop
// Poisson streams, then a closed loop. Store hits, store misses that
// compute, and 304 revalidations all pass through one handler, so a change
// that speeds one path at another's cost shows here. The end-to-end op is
// one closed-loop block of the mix, which repeats from run to run; the open
// loop's per-request latencies, timed from when each request was due, are
// the serve.* per-layer metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
	"repro/internal/serve"
)

// coldExperiments are the catalog entries cold requests draw from: seed-keyed
// instances (ensemble, weightaug), shared cached cores (hierarchical35),
// the simulator (twocoloring-gap) and analytic ones.
var coldExperiments = [...]string{
	"twocoloring-gap", "hierarchical35-k2", "survivors", "copyfraction-d5", "ensemble-gw-linial", "weightaug-k2",
}

// The open-loop mix: stream hit carries 85 GETs of stored keys and 5
// If-None-Match revalidations per second; stream cold carries 10 GETs per
// second of never-seen seeds. At these rates the open loop keeps the
// reference host at about a third of its CPU (serve.open_cpu_util). The
// closed loop replays the same 9:1 mix in blocks that hold one cold of
// every cold experiment, so every block does the same work: a block of 20
// with two colds drawn from six experiments of very different cost made
// the block-time percentiles jump with the draw.
const (
	hitRate     = 90.0
	coldRate    = 10.0
	hitBlock    = 18                        // 17 GETs and 1 revalidation per block of the hit stream
	closedBlock = 10 * len(coldExperiments) // 6 colds, 51 GETs, 3 revalidations
	// openShare is the share of the measured seconds given to the open
	// loop; the closed loop, which the end-to-end metrics come from, gets
	// the rest.
	openShare = 0.4
	// coldChecks caps how many cold responses are recomputed in process
	// and compared byte for byte after the load.
	coldChecks = 12
)

type hitKey struct {
	key, path, etag string
	body            []byte
}

type serveSession struct {
	seed   uint64
	rng    splitmix
	dir    string
	store  *serve.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	keys   []hitKey
}

func setupServe(o runOpts) (session, error) {
	exp.InstanceCache().Reset()
	dir, err := os.MkdirTemp("", "bench-store-*")
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: o.seed, rng: splitmix{o.seed}, dir: dir, served: make(chan error, 1)}
	if s.store, err = serve.NewStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Jobs 1: one goroutine per computation, as in the batch workloads.
	if s.srv, err = serve.New(serve.Config{Store: s.store, Jobs: 1}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	h := s.srv.Handler()
	if o.tr != nil {
		h = handlerSpans(o.tr, h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	if err := s.prefill(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prefill stores the quick catalog at the run's seed through one POST
// /v1/batch and records each result's path, ETag and bytes.
func (s *serveSession) prefill() error {
	body := fmt.Sprintf(`{"experiments":["all"],"preset":"quick","seed":%d}`, s.seed)
	resp, err := http.Post(s.base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prefill: status %d: %v", resp.StatusCode, err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != len(exp.List()) || bytes.Contains(raw, []byte(`"error"`)) {
		return fmt.Errorf("prefill: %d lines for %d experiments", lines, len(exp.List()))
	}
	client := newClient()
	defer client.CloseIdleConnections()
	cfg := exp.RunConfig{Preset: exp.PresetQuick, Seed: s.seed}
	for _, e := range exp.List() {
		key, err := e.ResultKeyFor(cfg)
		if err != nil {
			return err
		}
		stored, ok, err := s.store.Get(key)
		if err != nil || !ok {
			return fmt.Errorf("prefill: %s not stored: %v", key, err)
		}
		k := hitKey{key: key, path: fmt.Sprintf("/v1/experiments/%s?preset=quick&seed=%d", e.Name, s.seed), body: stored}
		resp, err := client.Get(s.base + k.path)
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, stored) {
			return fmt.Errorf("prefill: %s: status %d, bytes equal to store %t: %v",
				key, resp.StatusCode, bytes.Equal(got, stored), err)
		}
		k.etag = resp.Header.Get("ETag")
		s.keys = append(s.keys, k)
	}
	return nil
}

func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	os.RemoveAll(s.dir)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// handlerSpans records a serve.handler span around every request, linked to
// the client's http.request span through request headers.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
		trace, _ := strconv.ParseUint(r.Header.Get("X-Bench-Trace"), 10, 64)
		tr.record("serve.handler", r.Header.Get("X-Bench-Kind"), parent, trace, start, end)
	})
}

// request is one planned request and, once sent, its outcome.
type request struct {
	kind string // hit, revalidate or cold
	at   time.Duration
	key  int    // hits and revalidations: index into keys
	exp  string // colds
	seed uint64 // colds

	due, sent, done time.Time
	late            time.Duration
	bodyLen         int
}

// coldStream yields cold requests: the experiments in seeded permutation
// rounds, each with a fresh seed.
type coldStream struct {
	rng   splitmix
	order []int
}

func (c *coldStream) next() request {
	if len(c.order) == 0 {
		c.order = c.rng.perm(len(coldExperiments))
	}
	name := coldExperiments[c.order[0]]
	c.order = c.order[1:]
	return request{kind: "cold", exp: name, seed: c.rng.next() | 1}
}

// hitStream yields hits and revalidations, one revalidation per block at a
// seeded position.
type hitStream struct {
	rng     splitmix
	keys, i int
	reval   int
}

func (h *hitStream) next() request {
	if h.i%hitBlock == 0 {
		h.reval = h.rng.intn(hitBlock)
	}
	kind := "hit"
	if h.i%hitBlock == h.reval {
		kind = "revalidate"
	}
	h.i++
	return request{kind: kind, key: h.rng.intn(h.keys)}
}

// poisson returns arrival offsets of a Poisson process at rate per second
// over secs seconds.
func poisson(rng *splitmix, rate, secs float64) []time.Duration {
	var at []time.Duration
	for t := 0.0; ; {
		t += -math.Log(1-rng.float()) / rate
		if t >= secs {
			return at
		}
		at = append(at, time.Duration(t*float64(time.Second)))
	}
}

// coldSample is a cold response kept for the byte-for-byte recheck.
type coldSample struct {
	exp  string
	seed uint64
	body []byte
}

// checker validates responses; safe for concurrent use.
type checker struct {
	s       *serveSession
	mu      sync.Mutex
	out     *outcome
	samples []coldSample
	offset  int
	colds   int
}

func (c *checker) check(r *request, status int, body []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out.attempted++
	switch {
	case err != nil:
		c.out.fail("%s request: %v", r.kind, err)
	case r.kind == "revalidate":
		if status != http.StatusNotModified {
			c.out.fail("revalidate %s: status %d, want 304", c.s.keys[r.key].path, status)
		}
	case status != http.StatusOK:
		c.out.fail("%s request: status %d: %s", r.kind, status, body)
	case r.kind == "hit":
		if !bytes.Equal(body, c.s.keys[r.key].body) {
			c.out.fail("hit %s: body differs from the stored file", c.s.keys[r.key].path)
		}
	case r.kind == "cold":
		if c.colds%10 == c.offset && len(c.samples) < coldChecks {
			c.samples = append(c.samples, coldSample{r.exp, r.seed, body})
		}
		c.colds++
	}
}

// send makes one request on client, inside an http.request span when
// traced.
func (s *serveSession) send(client *http.Client, r *request, tr *tracer, trace uint64) (int, []byte, error) {
	path := s.keys[r.key].path
	if r.kind == "cold" {
		path = fmt.Sprintf("/v1/experiments/%s?preset=quick&seed=%d", r.exp, r.seed)
	}
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if r.kind == "revalidate" {
		req.Header.Set("If-None-Match", s.keys[r.key].etag)
	}
	sp := tr.begin("http.request", r.kind, 0, trace)
	if tr != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatUint(sp.id(), 10))
		req.Header.Set("X-Bench-Trace", strconv.FormatUint(trace, 10))
		req.Header.Set("X-Bench-Kind", r.kind)
	}
	defer sp.end()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends plan on its own connection, each request at its due time
// or, when the previous response is late, as soon as it arrives.
func (s *serveSession) openLoop(plan []request, start time.Time, chk *checker, tr *tracer, traceBase uint64) {
	client := newClient()
	defer client.CloseIdleConnections()
	var prevDone time.Time
	for i := range plan {
		r := &plan[i]
		r.due = start.Add(r.at)
		waitUntil(r.due)
		r.sent = time.Now()
		status, body, err := s.send(client, r, tr, traceBase+uint64(i))
		r.done = time.Now()
		ready := r.due
		if prevDone.After(ready) {
			ready = prevDone
		}
		r.late = r.sent.Sub(ready)
		prevDone = r.done
		r.bodyLen = len(body)
		chk.check(r, status, body, err)
	}
}

// waitUntil returns at t. Timer wake-ups on a busy host run a fraction of a
// millisecond late, which would read as service latency, so the last
// stretch is spent yielding in a loop instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// processCPU is the user and system CPU time the process has used, server
// and load generator together.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Requests struct {
		Computes uint64 `json:"computes"`
	} `json:"requests"`
	Singleflight struct {
		Joined uint64 `json:"joined"`
	} `json:"singleflight"`
	Admission struct {
		Rejected uint64 `json:"rejected"`
	} `json:"admission"`
	ResultStore   serve.StoreStats `json:"result_store"`
	InstanceCache inst.Stats       `json:"instance_cache"`
}

func (s *serveSession) statsz() (*statsz, error) {
	resp, err := http.Get(s.base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, nil
}

func (s *serveSession) run(o runOpts, out *outcome) error {
	openSecs := o.seconds * openShare
	closedSecs := o.seconds - openSecs
	chk := &checker{s: s, out: out, offset: s.rng.intn(10)}
	hits := &hitStream{rng: splitmix{s.rng.next()}, keys: len(s.keys)}
	colds := &coldStream{rng: splitmix{s.rng.next()}}

	var hitPlan, coldPlan []request
	for _, at := range poisson(&s.rng, hitRate, openSecs) {
		r := hits.next()
		r.at = at
		hitPlan = append(hitPlan, r)
	}
	for _, at := range poisson(&s.rng, coldRate, openSecs) {
		r := colds.next()
		r.at = at
		coldPlan = append(coldPlan, r)
	}
	// Closed-loop blocks are drawn before the load so generation is not
	// timed: enough for the client to run at several times the reference
	// host's capacity. Aligning both streams makes every block one
	// permutation round of the cold experiments and whole hit-stream
	// blocks.
	hits.i, colds.order = 0, nil
	var closed []request
	for len(closed) < int(closedSecs*2000)+closedBlock {
		var block []request
		for range coldExperiments {
			block = append(block, colds.next())
		}
		for len(block) < closedBlock {
			block = append(block, hits.next())
		}
		for _, i := range s.rng.perm(closedBlock) {
			closed = append(closed, block[i])
		}
	}

	before, err := s.statsz()
	if err != nil {
		return err
	}

	// Open loop: two streams, each on its own connection.
	start := time.Now().Add(20 * time.Millisecond)
	cpu0 := processCPU()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.openLoop(hitPlan, start, chk, o.tr, 1) }()
	go func() { defer wg.Done(); s.openLoop(coldPlan, start, chk, o.tr, 1<<32) }()
	wg.Wait()
	openCPU := float64(processCPU()-cpu0) / float64(time.Since(start)*cpus)

	// Closed loop: one client, sending its next request when the previous
	// one completes. One op is one block of closedBlock requests; its time
	// is dominated by the colds, so it drifts with the host like the batch
	// ops do rather than like a 40 µs loopback hit.
	b0, _ := heapAllocs()
	client := newClient()
	closedStart := time.Now()
	deadline := closedStart.Add(time.Duration(closedSecs * float64(time.Second)))
	done := 0
	for i := range closed {
		if i%closedBlock == 0 && time.Now().After(deadline) {
			break
		}
		r := &closed[i]
		r.sent = time.Now()
		status, body, err := s.send(client, r, nil, 0)
		r.done = time.Now()
		chk.check(r, status, body, err)
		done++
	}
	closedWall := time.Since(closedStart)
	client.CloseIdleConnections()
	b1, _ := heapAllocs()
	for i := 0; i+closedBlock <= done; i += closedBlock {
		out.ops = append(out.ops, closed[i+closedBlock-1].done.Sub(closed[i].sent))
	}
	out.opsPerSec = float64(len(out.ops)) / closedWall.Seconds()
	out.allocBytes = b1 - b0
	out.allocOps = len(out.ops)

	after, err := s.statsz()
	if err != nil {
		return err
	}

	lat := map[string]samples{}
	late := map[string]samples{}
	var sizes samples
	for _, plan := range [][]request{hitPlan, coldPlan} {
		for _, r := range plan {
			lat[r.kind] = append(lat[r.kind], ms(r.done.Sub(r.due)))
			stream := "hit"
			if r.kind == "cold" {
				stream = "cold"
			}
			late[stream] = append(late[stream], ms(r.late))
			if r.kind != "revalidate" {
				sizes = append(sizes, float64(r.bodyLen))
			}
		}
	}
	for _, stream := range []string{"hit", "cold"} {
		if p99 := late[stream].percentile(99); p99 > 1 {
			fmt.Fprintf(os.Stderr, "bench: serve-mixed: FLAGGED: the %s stream's generator ran %.3f ms late at p99 (over 1 ms)\n", stream, p99)
		}
	}
	s.recheckColds(chk)

	if o.tr == nil {
		return nil
	}
	out.layer("serve.hit_p50_ms", lat["hit"].median(), len(lat["hit"]))
	out.layer("serve.hit_p99_ms", lat["hit"].percentile(99), len(lat["hit"]))
	out.layer("serve.cold_p50_ms", lat["cold"].median(), len(lat["cold"]))
	out.layer("serve.cold_p90_ms", lat["cold"].percentile(90), len(lat["cold"]))
	out.layer("gen.late_ms_p99.hit", late["hit"].percentile(99), len(late["hit"]))
	out.layer("gen.late_ms_p99.cold", late["cold"].percentile(99), len(late["cold"]))
	out.layer("serve.response_bytes_p50", sizes.median(), len(sizes))
	out.layer("serve.open_cpu_util", openCPU, 1)
	s.layerSpans(o.tr, out)
	s.layerCounters(before, after, out)
	return s.layerStore(out)
}

// recheckColds recomputes the sampled cold responses in process and
// compares bytes.
func (s *serveSession) recheckColds(chk *checker) {
	for _, c := range chk.samples {
		e, ok := exp.Lookup(c.exp)
		if !ok {
			chk.out.fail("cold recheck: unknown experiment %s", c.exp)
			continue
		}
		res, err := exp.RunBatch(context.Background(), []*exp.Experiment{e},
			exp.BatchOptions{Jobs: 1, Config: exp.RunConfig{Preset: exp.PresetQuick, Seed: c.seed}})
		if err != nil {
			chk.out.fail("cold recheck %s seed %d: %v", c.exp, c.seed, err)
			continue
		}
		raw, err := exp.CanonicalJSON(res[0])
		if err != nil || !bytes.Equal(raw, c.body) {
			chk.out.fail("cold %s seed %d: served bytes differ from an in-process run (%v)", c.exp, c.seed, err)
		}
	}
}

// layerSpans derives handler and client times from the open loop's spans.
func (s *serveSession) layerSpans(tr *tracer, out *outcome) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	handler := map[string]samples{}
	client := map[string]samples{}
	for _, sp := range spans {
		switch {
		case sp.Name == "serve.handler" && sp.Attr != "":
			handler[sp.Attr] = append(handler[sp.Attr], sp.dur())
		case sp.Name == "http.request":
			client[sp.Attr] = append(client[sp.Attr], self[sp.ID])
		}
	}
	for _, k := range []string{"hit", "revalidate", "cold"} {
		out.layer("serve.handler_ms_p50."+k, handler[k].median(), len(handler[k]))
	}
	out.layer("serve.handler_ms_p99.hit", handler["hit"].percentile(99), len(handler["hit"]))
	out.layer("serve.handler_ms_p90.cold", handler["cold"].percentile(90), len(handler["cold"]))
	for _, k := range []string{"hit", "cold"} {
		out.layer("http.client_ms_p50."+k, client[k].median(), len(client[k]))
	}
}

// layerCounters reports the service's and the instance cache's counters
// over the load, from /statsz.
func (s *serveSession) layerCounters(before, after *statsz, out *outcome) {
	d := func(a, b uint64) float64 { return float64(b) - float64(a) }
	out.layer("serve.computes", d(before.Requests.Computes, after.Requests.Computes), 1)
	out.layer("serve.flight_joined", d(before.Singleflight.Joined, after.Singleflight.Joined), 1)
	out.layer("serve.admission_rejected", d(before.Admission.Rejected, after.Admission.Rejected), 1)
	out.layer("serve.store_hits", d(before.ResultStore.Hits, after.ResultStore.Hits), 1)
	out.layer("serve.store_misses", d(before.ResultStore.Misses, after.ResultStore.Misses), 1)
	bi, ai := before.InstanceCache, after.InstanceCache
	for _, k := range inst.Kinds() {
		out.layer("inst.build_ms."+string(k), ms(ai.Kinds[k].BuildTime-bi.Kinds[k].BuildTime), 1)
	}
	out.layer("inst.builds", d(bi.Builds, ai.Builds), 1)
	out.layer("inst.hits", d(bi.Hits, ai.Hits), 1)
	if req := d(bi.Hits, ai.Hits) + d(bi.Misses, ai.Misses); req > 0 {
		out.layer("inst.hit_ratio", d(bi.Hits, ai.Hits)/req, 1)
	}
}

// layerStore times Store.Get and Store.Put called directly, after the load.
func (s *serveSession) layerStore(out *outcome) error {
	var get, put samples
	for i := 0; i < 200; i++ {
		k := s.keys[i%len(s.keys)]
		start := time.Now()
		raw, ok, err := s.store.Get(k.key)
		get = append(get, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil || !ok || !bytes.Equal(raw, k.body) {
			out.fail("Store.Get(%s): ok %t, err %v", k.key, ok, err)
		}
	}
	var res exp.Result
	if err := json.Unmarshal(s.keys[0].body, &res); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		raw, err := s.store.Put("bench-put-"+strconv.Itoa(i), &res)
		put = append(put, ms(time.Since(start)))
		if err != nil || !bytes.Equal(raw, s.keys[0].body) {
			out.fail("Store.Put: %v", err)
		}
	}
	out.layer("serve.store_get_us_p50", get.median(), len(get))
	out.layer("serve.store_put_ms_p50", put.median(), len(put))
	return nil
}
