// Command bench is the repository's benchmark: three workloads that drive
// the program through its public Go API — a catalog batch, the round engine
// on every backend, and the HTTP service under a mixed open-loop load —
// checking every output and reporting end-to-end metrics, or, traced,
// per-layer metrics. README.md describes the workloads, the metrics and how
// to read them.
//
// Usage (from the repository root, or from this directory with go run .):
//
//	bash bench/run.sh --workload sim-engine --seed 1 --seconds 35 --trace 0
//	bench -seed 1 -json              every workload, each in a fresh process
//	bench -seed 1 -trace DIR         traced runs; spans in DIR/<workload>.jsonl
//	bench -seed 1 -runs 5 -sets 2    median and spread over 5 fresh runs at seeds 1 and 2
//	bench ab OLD NEW                 interleaved A/B of two bench binaries
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cpus is the CPU count of the host the baseline was recorded on. It is
// fixed here rather than read from the machine, so a run elsewhere does the
// same work: sim-engine's parallel and sharded backends split each run this
// many ways, and serve.open_cpu_util is a share of this many CPUs. The batch
// and serve workloads drive the program from one caller (Jobs 1, the
// experiments command's default; one closed-loop client): two memory-heavy
// callers on a two-CPU share of a busy host measured mostly how much the
// host let them run side by side.
const cpus = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// runOpts parameterizes one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil for an untraced run
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	setup             []time.Duration
	ops               []time.Duration // per-op latency
	opsPerSec         float64
	allocBytes        uint64 // heap bytes allocated by the measured ops
	allocOps          int
	layers            map[string]detail // traced runs only
}

// fail counts one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// layer records one per-layer value with the number of samples behind it.
func (o *outcome) layer(name string, value float64, n int) {
	if o.layers == nil {
		o.layers = make(map[string]detail)
	}
	o.layers[name] = detail{Value: value, Samples: n}
}

// session is a workload whose set-up is done: inputs generated, servers
// started, one warm-up op run.
type session interface {
	// run checks the program's outputs against references and measures
	// for o.seconds.
	run(o runOpts, out *outcome) error
	close()
}

type workload struct {
	name  string
	setup func(runOpts) (session, error)
}

var workloads = []workload{
	{"batch-quick", setupBatch},
	{"sim-engine", setupEngine},
	{"serve-mixed", setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		os.Exit(abMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process (batch-quick, sim-engine, serve-mixed)")
	seed := fs.Uint64("seed", 1, "workload seed: ID and tree seeds, case order and arrival schedule")
	seconds := fs.Float64("seconds", 35, "measured seconds per workload run")
	trace := fs.String("trace", "0", "0 = untraced end-to-end metrics; 1 = traced per-layer metrics; any other value = traced, with spans written to that directory")
	asJSON := fs.Bool("json", false, "print one JSON document instead of text (all-workload mode)")
	runs := fs.Int("runs", 0, "repeat each workload this many times in fresh processes and report median and spread")
	sets := fs.Int("sets", 1, "with -runs: one set of runs per seed seed, seed+1, ..., taking turns run by run")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (how setup_s is measured)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		o := runOpts{seed: *seed, seconds: *seconds}
		if *setupOnly {
			return setupOnlyMain(w, o)
		}
		return runOne(w, o, *trace)
	}
	if *runs > 0 {
		if *sets < 1 {
			fmt.Fprintln(os.Stderr, "bench: -sets must be at least 1")
			return 2
		}
		return repeatAll(*seed, *seconds, *runs, *sets, *asJSON)
	}
	return runAll(*seed, *seconds, *trace, *asJSON)
}

// runOne runs one workload in this process and prints its report; the last
// line is the result JSON.
func runOne(w workload, o runOpts, trace string) int {
	out := &outcome{}
	var err error
	if trace != "0" {
		o.tr = newTracer()
	} else if out.setup, err = probeSetup(w.name, o.seed); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	s, err := w.setup(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	err = s.run(o, out)
	s.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	var details map[string]detail
	if o.tr == nil {
		details, err = endToEndDetails(out)
	} else {
		ops := durationsMS(out.ops)
		out.layer("trace.op_p50_ms", ops.median(), len(ops))
		spans := o.tr.snapshot()
		out.layer("trace.spans", float64(len(spans)), len(spans))
		details, err = layerDetails(out.layers)
		if err == nil && trace != "1" {
			err = writeJSONL(trace, w.name, spans)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.name, f)
	}
	printDetails(os.Stdout, w.name, details)
	raw, _ := json.Marshal(details)
	fmt.Printf("detail: %s\n", raw)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(details))}
	for k, d := range details {
		res.Metrics[k] = metric{Value: d.Value, Unit: d.Unit}
	}
	raw, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(raw))
	if out.failed > 0 || out.attempted == 0 {
		return 1
	}
	return 0
}

func setupOnlyMain(w workload, o runOpts) int {
	s, err := w.setup(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Println("ready")
	s.close()
	return 0
}

// probeSetup measures set-up as a user pays it: from spawning a fresh
// process until it is ready for its first timed op. It repeats this
// setupReps times.
func probeSetup(workload string, seed uint64) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(stdout)
		ready := sc.Scan() && sc.Text() == "ready"
		d := time.Since(start)
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil || !ready {
			return nil, fmt.Errorf("set-up probe %d: ready=%t: %v", i, ready, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// endToEndDetails derives the end-to-end metrics from a run's measurements.
// There is no tail percentile: a run holds 35 to 130 ops, so the highest
// percentile with ten samples beyond it lies between p71 and p92, and over
// a closed loop of like ops it followed the host's drift, not the program.
func endToEndDetails(out *outcome) (map[string]detail, error) {
	if out.attempted == 0 || len(out.ops) == 0 {
		return nil, errors.New("no operation completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ops := durationsMS(out.ops)
	setup := make(samples, len(out.setup))
	for i, d := range out.setup {
		setup[i] = d.Seconds()
	}
	return map[string]detail{
		"setup_s":         {Value: setup.median(), Unit: "s", Samples: len(setup)},
		"ops_per_s":       {Value: out.opsPerSec, Unit: "1/s", Samples: len(ops)},
		"op_p50_ms":       {Value: ops.median(), Unit: "ms", Samples: len(ops)},
		"peak_rss_mb":     {Value: rss, Unit: "MB", Samples: 1},
		"alloc_mb_per_op": {Value: float64(out.allocBytes) / 1e6 / float64(max(out.allocOps, 1)), Unit: "MB", Samples: out.allocOps},
	}, nil
}

func printDetails(w io.Writer, workload string, details map[string]detail) {
	names := make([]string, 0, len(details))
	for k := range details {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := details[k]
		fmt.Fprintf(w, "%-12s %-44s %14.6g %-6s n=%d\n", workload, k, d.Value, d.Unit, d.Samples)
	}
}

// childRun is the parsed output of one workload process.
type childRun struct {
	result  result
	details map[string]detail
}

// runChild runs one workload in a fresh process of this binary, so the
// process-global instance cache and the peak RSS of one workload never leak
// into another.
func runChild(workload string, seed uint64, seconds float64, trace string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return runBinary(self, workload, seed, seconds, trace)
}

// runBinary runs bin on one workload and parses its report.
func runBinary(bin, workload string, seed uint64, seconds float64, trace string) (*childRun, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	run := &childRun{}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if raw, ok := strings.CutPrefix(line, "detail: "); ok {
			if err := json.Unmarshal([]byte(raw), &run.details); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", workload, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if last == "" || json.Unmarshal([]byte(last), &run.result) != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line", workload)
	}
	if runErr != nil && run.result.Failed == 0 {
		return nil, fmt.Errorf("%s: %w", workload, runErr)
	}
	return run, nil
}

// host describes the machine a report was measured on.
func host() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpus":       cpus,
	}
}

// runAll runs every workload once in its own process. With a trace value
// other than "0" each workload runs untraced and then traced, and the
// tracing overhead is printed.
func runAll(seed uint64, seconds float64, trace string, asJSON bool) int {
	type report struct {
		Correct         bool              `json:"correct"`
		Attempted       int               `json:"attempted"`
		Failed          int               `json:"failed"`
		Metrics         map[string]detail `json:"metrics"`
		Layers          map[string]detail `json:"layers,omitempty"`
		TraceOverheadMS *float64          `json:"trace_overhead_ms,omitempty"`
	}
	doc := map[string]any{"seed": seed, "seconds": seconds, "host": host()}
	reports := make(map[string]report)
	code := 0
	for _, w := range workloads {
		run, err := runChild(w.name, seed, seconds, "0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		rep := report{Correct: run.result.Correct, Attempted: run.result.Attempted,
			Failed: run.result.Failed, Metrics: run.details}
		if !run.result.Correct {
			code = 1
		}
		if trace != "0" {
			traced, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			} else {
				rep.Layers = traced.details
				overhead := traced.details["trace.op_p50_ms"].Value - run.details["op_p50_ms"].Value
				rep.TraceOverheadMS = &overhead
				if !traced.result.Correct {
					code = 1
				}
			}
		}
		reports[w.name] = rep
		if !asJSON {
			fmt.Printf("== %s: attempted %d, failed %d (fail_frac %.4g)\n", w.name, rep.Attempted, rep.Failed,
				float64(rep.Failed)/float64(max(rep.Attempted, 1)))
			printDetails(os.Stdout, w.name, rep.Metrics)
			if rep.Layers != nil {
				printDetails(os.Stdout, w.name, rep.Layers)
				fmt.Printf("%s tracing overhead: %+.3f ms on op_p50_ms (traced %.3f ms, untraced %.3f ms)\n", w.name,
					*rep.TraceOverheadMS, rep.Layers["trace.op_p50_ms"].Value, rep.Metrics["op_p50_ms"].Value)
			}
		}
	}
	if asJSON {
		doc["workloads"] = reports
		raw, _ := json.MarshalIndent(doc, "", "  ")
		fmt.Println(string(raw))
	}
	return code
}

// repeatAll runs every workload n times at each of `sets` seeds (seed,
// seed+1, ...), each run in a fresh process, and reports each end-to-end
// metric's median and spread per seed. The seeds take turns run by run, so
// a slow drift of the host lands on every set alike and the sets differ
// only by what the seed changes.
func repeatAll(seed uint64, seconds float64, n, sets int, asJSON bool) int {
	type summary struct {
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
	}
	type set struct {
		Seed      uint64                        `json:"seed"`
		Workloads map[string]map[string]summary `json:"workloads"`
	}
	out := make([]set, sets)
	for j := range out {
		out[j] = set{Seed: seed + uint64(j), Workloads: make(map[string]map[string]summary)}
	}
	code := 0
	for _, w := range workloads {
		values := make([]map[string]samples, sets)
		units := make(map[string]string)
		for j := range values {
			values[j] = make(map[string]samples)
		}
		for i := 0; i < n; i++ {
			for j := range out {
				run, err := runChild(w.name, out[j].Seed, seconds, "0")
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					code = 1
					continue
				}
				if !run.result.Correct {
					code = 1
				}
				for k, m := range run.result.Metrics {
					values[j][k] = append(values[j][k], m.Value)
					units[k] = m.Unit
				}
			}
		}
		for j := range out {
			out[j].Workloads[w.name] = make(map[string]summary)
			for k, v := range values[j] {
				q1, q2, q3 := v.quartiles()
				out[j].Workloads[w.name][k] = summary{Median: q2, Q1: q1, Q3: q3, Spread: v.spread(), Unit: units[k], Values: v}
				if !asJSON {
					fmt.Printf("seed %-4d %-12s %-16s median %12.6g %-4s IQR [%.6g, %.6g] spread %.3f\n",
						out[j].Seed, w.name, k, q2, units[k], q1, q3, v.spread())
				}
			}
		}
	}
	if asJSON {
		raw, _ := json.MarshalIndent(map[string]any{
			"seconds": seconds, "runs": n, "host": host(), "sets": out,
		}, "", "  ")
		fmt.Println(string(raw))
	}
	return code
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// heapAllocs reads the cumulative bytes and objects the Go heap allocated.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// repoFile locates a file at the repository root, whether the benchmark
// runs from the root or from this directory.
func repoFile(name string) (string, error) {
	for _, p := range []string{name, "../" + name} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found in . or ..", name)
}

// splitmix is a seeded stream of pseudo-random numbers, so every input the
// benchmark generates is a pure function of -seed.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a pseudo-random permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
