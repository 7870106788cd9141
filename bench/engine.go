package main

// sim-engine: Engine.Run alone, on four cases × four backends. No instance
// cache, exp or serve code runs, so this is where a change to the round
// loop, message passing or sharding shows undiluted.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Case sizes put each seq run at roughly 50-300 ms on the reference host
// (README.md lists the measured times).
const (
	pathDenseN = 2048  // path2048-2color: every node live for ~n rounds
	gwN        = 12000 // gw-linial: Galton-Watson, offspring uniform on {0..3}
	gwChildren = 3
	ladderN    = 30000 // ladder-linial
	pathLongN  = 65536 // path64k-linial: large working set, few rounds
)

type simCase struct {
	name string
	t    *graph.Tree
	ids  []uint64
	alg  sim.Algorithm
	// ref is the seq backend's output: every other run must equal it.
	ref    *sim.Result
	colors []int64
}

type backend struct {
	name string
	opts []sim.Option
}

var backends = []backend{
	{"seq", nil},
	{"par2", []sim.Option{sim.WithParallelism(cpus)}},
	{"shard2-range", []sim.Option{sim.WithShards(cpus), sim.WithShardLayout(sim.LayoutRange)}},
	{"shard2-subtree", []sim.Option{sim.WithShards(cpus), sim.WithShardLayout(sim.LayoutSubtree)}},
}

type engineSession struct {
	cases []*simCase
	rng   splitmix
	seeds struct{ gw, ladder uint64 }
}

// buildTrees builds the four trees and returns them with their build times
// in milliseconds (0 when untraced).
func (s *engineSession) buildTrees(tr *tracer, trace uint64) (map[string]*graph.Tree, map[string]float64, error) {
	out := make(map[string]*graph.Tree)
	buildMS := make(map[string]float64)
	for _, b := range []struct {
		name  string
		build func() (*graph.Tree, error)
	}{
		{"path2048", func() (*graph.Tree, error) { return graph.BuildPath(pathDenseN) }},
		{"gw", func() (*graph.Tree, error) { return graph.BuildGaltonWatson(gwN, gwChildren, s.seeds.gw) }},
		{"ladder", func() (*graph.Tree, error) { return graph.BuildLadder(ladderN, s.seeds.ladder) }},
		{"path64k", func() (*graph.Tree, error) { return graph.BuildPath(pathLongN) }},
	} {
		sp := tr.begin("graph.build", b.name, 0, trace)
		t, err := b.build()
		buildMS[b.name] = sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", b.name, err)
		}
		out[b.name] = t
	}
	return out, buildMS, nil
}

func setupEngine(o runOpts) (session, error) {
	s := &engineSession{rng: splitmix{o.seed}}
	s.seeds.gw, s.seeds.ladder = s.rng.next(), s.rng.next()
	trees, _, err := s.buildTrees(o.tr, 0)
	if err != nil {
		return nil, err
	}
	linial := func(t *graph.Tree) sim.Algorithm { return coloring.LinialAlgorithm{Delta: max(t.MaxDegree(), 1)} }
	s.cases = []*simCase{
		{name: "path2048-2color", t: trees["path2048"], alg: coloring.TwoColorPathAlgorithm{}},
		{name: "gw-linial", t: trees["gw"], alg: linial(trees["gw"])},
		{name: "ladder-linial", t: trees["ladder"], alg: linial(trees["ladder"])},
		{name: "path64k-linial", t: trees["path64k"], alg: linial(trees["path64k"])},
	}
	for _, c := range s.cases {
		c.ids = sim.DefaultIDs(c.t.N(), s.rng.next())
		// The warm-up run doubles as the seq reference.
		if c.ref, err = sim.NewEngine(sim.WithIDs(c.ids)).Run(c.t, c.alg); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", c.name, err)
		}
	}
	return s, nil
}

func (s *engineSession) close() {}

// check verifies one run's output: a proper coloring (which also covers the
// two-coloring that the catalog never verifies), the work identity
// Steps = Σ T_v + n, and equality with the seq reference. It returns the
// time VerifyProperColoring took.
func (c *simCase) check(r *sim.Result, tr *tracer, trace uint64) (time.Duration, error) {
	n := c.t.N()
	if len(r.Outputs) != n || len(r.Rounds) != n {
		return 0, fmt.Errorf("%d outputs, %d rounds for %d nodes", len(r.Outputs), len(r.Rounds), n)
	}
	colors := make([]int64, n)
	for v, o := range r.Outputs {
		col, ok := o.(int64)
		if !ok {
			return 0, fmt.Errorf("node %d output is %T, not a color", v, o)
		}
		colors[v] = col
	}
	sp := tr.begin("coloring.verify", c.name, 0, trace)
	start := time.Now()
	ok, u, v := coloring.VerifyProperColoring(c.t, colors)
	verify := time.Since(start)
	sp.end()
	if !ok {
		return verify, fmt.Errorf("improper coloring on edge {%d,%d}", u, v)
	}
	if r.Steps != r.SumRounds()+int64(n) {
		return verify, fmt.Errorf("Steps %d != Σ T_v + n = %d", r.Steps, r.SumRounds()+int64(n))
	}
	if c.colors == nil {
		c.colors = colors
		return verify, nil
	}
	if !slices.Equal(colors, c.colors) || !slices.Equal(r.Rounds, c.ref.Rounds) ||
		r.TotalRounds != c.ref.TotalRounds || r.Messages != c.ref.Messages || r.Steps != c.ref.Steps {
		return verify, fmt.Errorf("output differs from the seq backend")
	}
	return verify, nil
}

// layerSums accumulates one group's engine measurements.
type layerSums struct {
	ns, steps, objects, bytes float64
	runs                      int
}

func (s *engineSession) run(o runOpts, out *outcome) error {
	for _, c := range s.cases {
		if _, err := c.check(c.ref, nil, 0); err != nil {
			out.fail("%s seq reference: %v", c.name, err)
		}
	}
	var (
		busy       time.Duration
		byBackend  = make(map[string]*layerSums)
		byCase     = make(map[string]*layerSums)
		graphMS    = make(map[string]samples)
		verifyNS   float64
		verifyEdge float64
		pass       = make(map[string]float64) // exact counts of the first cycle
		deadline   = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		combos     = len(s.cases) * len(backends)
	)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		trace := uint64(cycle + 1)
		if o.tr != nil {
			if err := s.traceGraph(o.tr, trace, graphMS); err != nil {
				return err
			}
		}
		for _, k := range s.rng.perm(combos) {
			c, b := s.cases[k/len(backends)], backends[k%len(backends)]
			b0, o0 := heapAllocs()
			sp := o.tr.begin("sim.run", c.name+"/"+b.name, 0, trace)
			start := time.Now()
			r, err := sim.NewEngine(append([]sim.Option{sim.WithIDs(c.ids)}, b.opts...)...).Run(c.t, c.alg)
			d := time.Since(start)
			sp.end()
			b1, o1 := heapAllocs()
			out.attempted++
			if err != nil {
				out.fail("%s on %s: %v", c.name, b.name, err)
				continue
			}
			out.ops = append(out.ops, d)
			out.allocBytes += b1 - b0
			out.allocOps++
			busy += d

			verify, err := c.check(r, o.tr, trace)
			verifyNS += float64(verify.Nanoseconds())
			verifyEdge += float64(c.t.N() - 1)
			if err != nil {
				out.fail("%s on %s: %v", c.name, b.name, err)
			}

			for _, sums := range []*layerSums{sumsFor(byBackend, b.name), sumsFor(byCase, c.name)} {
				sums.ns += float64(d.Nanoseconds())
				sums.steps += float64(r.Steps)
				sums.objects += float64(o1 - o0)
				sums.bytes += float64(b1 - b0)
				sums.runs++
			}
			if cycle == 0 {
				pass["sim.steps_per_pass"] += float64(r.Steps)
				pass["sim.messages_per_pass"] += float64(r.Messages)
				for _, st := range r.Shards {
					// Each boundary edge is counted by both of its shards.
					pass["sim.boundary_edges."+b.name] += float64(st.BoundaryEdges) / 2
					pass["sim.messages_crossed."+b.name] += float64(st.MessagesCrossed)
				}
			}
		}
	}
	out.opsPerSec = float64(len(out.ops)) / busy.Seconds()
	if o.tr == nil {
		return nil
	}
	var total layerSums
	for name, b := range byBackend {
		out.layer("sim.ns_per_step."+name, b.ns/b.steps, b.runs)
		out.layer("sim.allocs_per_run."+name, b.objects/float64(b.runs), b.runs)
		out.layer("sim.alloc_bytes_per_step."+name, b.bytes/b.steps, b.runs)
		total.ns += b.ns
		total.steps += b.steps
		total.runs += b.runs
	}
	for name, c := range byCase {
		out.layer("sim.ns_per_step."+name, c.ns/c.steps, c.runs)
	}
	for name, v := range pass {
		out.layer(name, v, 1)
	}
	out.layer("sim.steps_per_s", total.steps/(total.ns/1e9), total.runs)
	out.layer("coloring.verify_ns_per_edge", verifyNS/verifyEdge, total.runs)
	for name, v := range graphMS {
		out.layer(name, v.median(), len(v))
	}
	return nil
}

func sumsFor(m map[string]*layerSums, key string) *layerSums {
	if m[key] == nil {
		m[key] = &layerSums{}
	}
	return m[key]
}

// traceGraph times a fresh build and a 2-way graph.Partition of each tree
// outside any op. The subtree backend pays the partition inside
// Engine.Run; this isolates it.
func (s *engineSession) traceGraph(tr *tracer, trace uint64, graphMS map[string]samples) error {
	trees, buildMS, err := s.buildTrees(tr, trace)
	if err != nil {
		return err
	}
	for _, name := range []string{"path64k", "gw", "ladder"} {
		graphMS["graph.build_ms."+name] = append(graphMS["graph.build_ms."+name], buildMS[name])
		sp := tr.begin("graph.partition", name, 0, trace)
		graph.Partition(trees[name], cpus)
		graphMS["graph.partition_ms."+name] = append(graphMS["graph.partition_ms."+name], sp.end())
	}
	return nil
}
