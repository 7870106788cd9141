package main

// The metric declarations. BENCHMARK.json at the repository root declares
// the same names and units (TestSpecMatchesDeclarations keeps the two
// equal); this file adds, for each per-layer metric, the end-to-end metrics
// it should move and on which workloads — the prediction a change to that
// layer is judged against.

import (
	"fmt"
	"strings"
)

// endToEnd lists the metrics every untraced run reports, with their units.
// Each is defined for every workload; README.md gives the per-workload
// meaning of "op".
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// layerGroup declares per-layer metrics sharing a unit, a direction and a
// prediction. Name may hold one {a,b,...} alternation. Moves lists
// "metric@workload,workload" entries separated by spaces.
type layerGroup struct {
	name, unit, better, moves string
}

var layerGroups = []layerGroup{
	// graph: construction and partitioning of the sim-engine trees.
	{"graph.build_ms.{path64k,gw,ladder}", "ms", "lower", "setup_s@sim-engine"},
	{"graph.partition_ms.{path64k,gw,ladder}", "ms", "lower", "op_p50_ms@sim-engine"},

	// inst: the instance cache behind every catalog task.
	{"inst.build_ms.{path,balanced,hierarchical,weighted,weightaug,galtonwatson,ladder}", "ms", "lower",
		"op_p50_ms@batch-quick,serve-mixed"},
	{"inst.builds", "count", "lower", "op_p50_ms@batch-quick,serve-mixed"},
	{"inst.hits", "count", "higher", "op_p50_ms@batch-quick,serve-mixed"},
	{"inst.hit_ratio", "ratio", "higher", "op_p50_ms@batch-quick,serve-mixed"},

	// sim: the round engine on each backend and case.
	{"sim.ns_per_step.seq", "ns", "lower", "ops_per_s@sim-engine op_p50_ms@sim-engine,batch-quick"},
	{"sim.ns_per_step.{par2,shard2-range,shard2-subtree}", "ns", "lower", "ops_per_s@sim-engine op_p50_ms@sim-engine"},
	{"sim.ns_per_step.{path2048-2color,gw-linial,ladder-linial,path64k-linial}", "ns", "lower",
		"ops_per_s@sim-engine op_p50_ms@sim-engine"},
	{"sim.allocs_per_run.{seq,par2,shard2-range,shard2-subtree}", "count", "lower", "alloc_mb_per_op@sim-engine"},
	{"sim.alloc_bytes_per_step.{seq,par2,shard2-range,shard2-subtree}", "B", "lower", "alloc_mb_per_op@sim-engine"},
	{"sim.{steps_per_pass,messages_per_pass}", "count", "lower", "ops_per_s@sim-engine"},
	{"sim.boundary_edges.{shard2-range,shard2-subtree}", "count", "lower", "op_p50_ms@sim-engine"},
	{"sim.messages_crossed.{shard2-range,shard2-subtree}", "count", "lower", "op_p50_ms@sim-engine"},
	{"sim.steps_per_s", "1/s", "higher", "ops_per_s@sim-engine,batch-quick"},

	// coloring: output verification (inside the ensemble tasks of a batch;
	// outside the timer on sim-engine).
	{"coloring.verify_ns_per_edge", "ns", "lower", "op_p50_ms@batch-quick"},

	// exp: the batch runner's stages, from the traced replay of each batch.
	{"exp.task_ms.{hierarchical,weighted,weightaug,copyfraction,twocoloring,ensemble,table}", "ms", "lower",
		"op_p50_ms@batch-quick"},
	{"exp.{task_self_ms,plan_ms,assemble_ms,canonical_ms}", "ms", "lower", "op_p50_ms@batch-quick"},
	{"exp.canonical_bytes", "B", "lower", "op_p50_ms@batch-quick"},
	{"exp.tasks_per_batch", "count", "lower", "op_p50_ms@batch-quick"},
	{"exp.task_share", "ratio", "higher", "op_p50_ms@batch-quick"},
	{"exp.{encode_ms,decode_ms}", "ms", "lower", "op_p50_ms@batch-quick"},
	{"exp.wire_bytes", "B", "lower", "op_p50_ms@batch-quick"},

	// serve and http: the service under the open-loop mix.
	{"serve.{hit_p50_ms,hit_p99_ms}", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.{cold_p50_ms,cold_p90_ms}", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.handler_ms_p50.{hit,revalidate}", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.handler_ms_p99.hit", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.handler_ms_p50.cold", "ms", "lower", "op_p50_ms@serve-mixed ops_per_s@serve-mixed"},
	{"serve.handler_ms_p90.cold", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"http.client_ms_p50.hit", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"http.client_ms_p50.cold", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.store_get_us_p50", "us", "lower", "op_p50_ms@serve-mixed"},
	{"serve.store_put_ms_p50", "ms", "lower", "op_p50_ms@serve-mixed"},
	{"serve.response_bytes_p50", "B", "lower", "op_p50_ms@serve-mixed"},
	{"serve.open_cpu_util", "ratio", "lower", "op_p50_ms@serve-mixed"},
	{"serve.{computes,admission_rejected,store_misses}", "count", "lower", "op_p50_ms@serve-mixed ops_per_s@serve-mixed"},
	{"serve.{flight_joined,store_hits}", "count", "higher", "op_p50_ms@serve-mixed ops_per_s@serve-mixed"},
	{"gen.late_ms_p99.{hit,cold}", "ms", "lower", "op_p50_ms@serve-mixed"},

	// trace: the traced run itself; compare trace.op_p50_ms with the
	// untraced op_p50_ms for the tracing overhead.
	{"trace.op_p50_ms", "ms", "lower", ""},
	{"trace.spans", "count", "lower", ""},
}

// layerMetric is one expanded per-layer metric.
type layerMetric struct {
	name, unit, better string
	moves              []move
}

// move is one predicted effect: the end-to-end metric on a workload.
type move struct{ metric, workload string }

// layerMetrics expands layerGroups in declaration order.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, g := range layerGroups {
		var moves []move
		for _, entry := range strings.Fields(g.moves) {
			metric, wls, _ := strings.Cut(entry, "@")
			for _, w := range strings.Split(wls, ",") {
				moves = append(moves, move{metric, w})
			}
		}
		for _, name := range expand(g.name) {
			out = append(out, layerMetric{name: name, unit: g.unit, better: g.better, moves: moves})
		}
	}
	return out
}

// expand resolves one {a,b,...} alternation.
func expand(pattern string) []string {
	lo, hi := strings.Index(pattern, "{"), strings.Index(pattern, "}")
	if lo < 0 || hi < lo {
		return []string{pattern}
	}
	var out []string
	for _, alt := range strings.Split(pattern[lo+1:hi], ",") {
		out = append(out, pattern[:lo]+alt+pattern[hi+1:])
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is a metric with the number of samples behind it, for the
// human-readable report.
type detail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerDetails fills every declared per-layer metric from the measured
// values; a layer the workload does not exercise reads 0.
func layerDetails(measured map[string]detail) (map[string]detail, error) {
	out := make(map[string]detail)
	declared := make(map[string]bool)
	for _, m := range layerMetrics() {
		declared[m.name] = true
		d := measured[m.name]
		d.Unit = m.unit
		out[m.name] = d
	}
	for name := range measured {
		if !declared[name] {
			return nil, fmt.Errorf("per-layer metric %s is measured but not declared", name)
		}
	}
	return out, nil
}
