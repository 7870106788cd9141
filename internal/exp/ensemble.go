package exp

// The ensemble-* experiment family: cross-ensemble statistics of a LOCAL
// algorithm over seeded random-tree families (graph.BuildGaltonWatson,
// graph.BuildLadder). An ensemble run samples one tree per point — the
// preset values are sample indices, and sample i's tree and IDs both derive
// from PointSeed(base, i) — so the existing task scheduler parallelizes the
// ensemble across -jobs and -workers for free, and the canonical result is
// byte-identical no matter how the samples are scheduled.
//
// Wire discipline: a sample's numeric summary rides in the measure.Point
// (float64 round-trips exactly through the worker protocol's wirePoint) and
// its color distribution rides as a pre-formatted string cell
// (measure.FormatCell passes strings through verbatim), so the in-process
// and cross-process assemble paths see identical inputs and emit identical
// bytes.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/sim"
)

// ensembleSpec is the decomposed form of an ensemble experiment: one
// independent sample function per sample index. Like sweepSpec point
// functions, samples must be pure up to their (idx, seed) inputs.
type ensembleSpec struct {
	header []string
	title  string
	// key identifies the sampled instance for (idx, seed): its String()
	// labels the task and its Core() is the task's affinity group.
	key func(idx int, seed uint64) inst.Key
	// sample draws and runs one ensemble member under the point seed. The
	// returned row's last cell must be the formatColorDist string and the
	// point must carry (TotalRounds, node-averaged rounds); assemble depends
	// on both.
	sample func(ctx context.Context, idx int, seed uint64, eng engineConfig) (sweepPoint, error)
}

// pointTotals sums the execution-mechanics counters of a point set: machine
// steps and shard traffic. They annotate the Result (and are stripped from
// its canonical form); none of them touches a table cell.
type pointTotals struct{ steps, boundary, crossed int64 }

// assemble combines completed samples — in canonical sample order — into the
// per-sample table and the cross-ensemble statistics table, plus the total
// simulator machine-step work and shard traffic across the samples. Both the
// serial path and the task planner funnel through here.
func (s *ensembleSpec) assemble(points []sweepPoint) ([]measure.Table, pointTotals, error) {
	samples := measure.Table{Title: s.title, Header: s.header}
	var sumTotal, maxTotal, sumAvg float64
	var totals pointTotals
	dist := map[int64]int64{}
	for i, p := range points {
		samples.AddRow(p.row...)
		totals.steps += p.steps
		totals.boundary += p.boundary
		totals.crossed += p.crossed
		sumTotal += p.pt.X
		if p.pt.X > maxTotal {
			maxTotal = p.pt.X
		}
		sumAvg += p.pt.Y
		// The distribution cell is the row's last entry on both execution
		// paths: a string built by formatColorDist (in-process) or its
		// verbatim wire copy (cross-process).
		cell, ok := p.row[len(p.row)-1].(string)
		if !ok {
			return nil, pointTotals{}, fmt.Errorf("sample %d: distribution cell is %T, not string", i, p.row[len(p.row)-1])
		}
		if err := addColorDist(dist, cell); err != nil {
			return nil, pointTotals{}, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	n := float64(len(points))
	stats := measure.Table{
		Title:  "ensemble statistics",
		Header: []string{"statistic", "value", "", ""},
	}
	stats.AddRow("samples", len(points), "", "")
	if len(points) > 0 {
		stats.AddRow("mean total rounds", sumTotal/n, "", "")
		stats.AddRow("max total rounds", maxTotal, "", "")
		stats.AddRow("mean node-avg rounds", sumAvg/n, "", "")
		stats.AddRow("output distribution", formatColorDist(dist), "", "")
	}
	return []measure.Table{samples, stats}, totals, nil
}

// runSerial executes the ensemble's samples in order on the calling
// goroutine (the Experiment.Run path).
func (s *ensembleSpec) runSerial(ctx context.Context, idxs []int, seed uint64, eng engineConfig) ([]measure.Table, pointTotals, error) {
	points := make([]sweepPoint, 0, len(idxs))
	for _, idx := range idxs {
		if err := sweepStep(ctx); err != nil {
			return nil, pointTotals{}, err
		}
		p, err := s.sample(ctx, idx, PointSeed(seed, idx), eng)
		if err != nil {
			return nil, pointTotals{}, err
		}
		points = append(points, p)
	}
	return s.assemble(points)
}

// formatColorDist renders per-color output counts in ascending color order:
// "0:412 1:305 2:51". The format is its own inverse under addColorDist, so
// per-sample cells aggregate into the cross-ensemble distribution without a
// second representation.
func formatColorDist(counts map[int64]int64) string {
	colors := make([]int64, 0, len(counts))
	for c := range counts {
		colors = append(colors, c)
	}
	sort.Slice(colors, func(i, j int) bool { return colors[i] < colors[j] })
	var b strings.Builder
	for i, c := range colors {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatInt(c, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(counts[c], 10))
	}
	return b.String()
}

// addColorDist accumulates one formatColorDist cell into counts.
func addColorDist(counts map[int64]int64, cell string) error {
	if cell == "" {
		return nil
	}
	for _, part := range strings.Split(cell, " ") {
		c, n, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad distribution cell %q", cell)
		}
		color, err := strconv.ParseInt(c, 10, 64)
		if err != nil {
			return fmt.Errorf("bad distribution cell %q: %w", cell, err)
		}
		count, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			return fmt.Errorf("bad distribution cell %q: %w", cell, err)
		}
		counts[color] += count
	}
	return nil
}

// runLinialSample runs the Linial (Δ+1)-coloring workload on one sampled
// tree and summarizes it as a sweep point: pt = (TotalRounds, node-avg) and
// a row ending in the color-distribution cell.
func runLinialSample(ctx context.Context, idx int, seed uint64, eng engineConfig, tr *graph.Tree) (sweepPoint, error) {
	delta := tr.MaxDegree()
	if delta < 1 {
		delta = 1 // single-node sample: Linial needs a positive degree bound
	}
	r, err := sim.NewEngine(
		sim.WithIDs(sim.DefaultIDs(tr.N(), seed)),
		sim.WithContext(ctx),
		sim.WithParallelism(eng.parallelism),
		sim.WithShards(eng.shards),
		sim.WithShardLayout(sim.ShardLayout(eng.layout)),
	).Run(tr, coloring.LinialAlgorithm{Delta: delta})
	if err != nil {
		return sweepPoint{}, err
	}
	colors, err := verifiedColors(tr, r.Outputs)
	if err != nil {
		return sweepPoint{}, fmt.Errorf("sample %d: %w", idx, err)
	}
	counts := map[int64]int64{}
	for _, c := range colors {
		counts[c]++
	}
	avg := r.NodeAveraged()
	boundary, crossed := shardTraffic(r)
	return sweepPoint{
		pt:       measure.Point{X: float64(r.TotalRounds), Y: avg},
		row:      []any{idx, delta, r.TotalRounds, avg, formatColorDist(counts)},
		steps:    r.Steps,
		boundary: boundary,
		crossed:  crossed,
	}, nil
}

// verifiedColors converts a coloring run's outputs to colors and checks that
// they properly color tr.
func verifiedColors(tr *graph.Tree, outputs []any) ([]int64, error) {
	colors := make([]int64, len(outputs))
	for v, o := range outputs {
		c, ok := o.(int64)
		if !ok {
			return nil, fmt.Errorf("node %d output is %T, not a color", v, o)
		}
		colors[v] = c
	}
	if ok, u, v := coloring.VerifyProperColoring(tr, colors); !ok {
		return nil, fmt.Errorf("improper coloring on edge {%d,%d}", u, v)
	}
	return colors, nil
}

// ensembleHeader is the per-sample table header shared by the Linial
// ensembles; the distribution cell is last by the assemble contract.
var ensembleHeader = []string{"sample", "Δ", "total rounds", "node-avg rounds", "color distribution"}

// ensembleGWSpec declares a Linial-coloring ensemble over Galton-Watson
// trees with n nodes and uniform {0..maxChildren} offspring.
func ensembleGWSpec(n, maxChildren int) *ensembleSpec {
	return &ensembleSpec{
		header: ensembleHeader,
		title: fmt.Sprintf("E-ENS: Linial (Δ+1)-coloring over Galton-Watson(n=%d, c=%d) samples",
			n, maxChildren),
		key: func(_ int, seed uint64) inst.Key { return inst.GWKey(n, maxChildren, seed) },
		sample: func(ctx context.Context, idx int, seed uint64, eng engineConfig) (sweepPoint, error) {
			tr, err := instances.GaltonWatson(n, maxChildren, seed)
			if err != nil {
				return sweepPoint{}, err
			}
			return runLinialSample(ctx, idx, seed, eng, tr)
		},
	}
}

// ensembleLadderSpec declares a Linial-coloring ensemble over ladder-heavy
// trees with n nodes (max degree 3).
func ensembleLadderSpec(n int) *ensembleSpec {
	return &ensembleSpec{
		header: ensembleHeader,
		title:  fmt.Sprintf("E-ENS: Linial (Δ+1)-coloring over ladder-tree(n=%d) samples", n),
		key:    func(_ int, seed uint64) inst.Key { return inst.LadderKey(n, seed) },
		sample: func(ctx context.Context, idx int, seed uint64, eng engineConfig) (sweepPoint, error) {
			tr, err := instances.Ladder(n, seed)
			if err != nil {
				return sweepPoint{}, err
			}
			return runLinialSample(ctx, idx, seed, eng, tr)
		},
	}
}

// ensembleExperiment wraps an ensembleSpec as a registered Experiment,
// mirroring sweepExperiment: Run executes the samples serially, Plan
// exposes them as independently schedulable tasks, and both produce
// identical canonical results (two tables, no fitted exponent — an ensemble
// has no scaling axis). Preset values are sample indices.
func ensembleExperiment(name, description, theory string, presets map[string][]int, seed uint64,
	spec func() *ensembleSpec) *Experiment {
	e := &Experiment{
		Name:        name,
		Description: description,
		Theory:      theory,
		Presets:     presets,
		DefaultSeed: seed,
	}
	finish := func(cfg RunConfig, preset string, idxs []int, started time.Time, tables []measure.Table, totals pointTotals) *Result {
		res := e.newResult(cfg, preset, idxs, started)
		res.Tables = tables
		res.Steps = totals.steps
		if totals.boundary > 0 || totals.crossed > 0 {
			res.ShardTraffic = &ShardTraffic{BoundaryEdges: totals.boundary, MessagesCrossed: totals.crossed}
		}
		return res
	}
	e.Run = func(ctx context.Context, cfg RunConfig) (*Result, error) {
		if err := sweepStep(ctx); err != nil {
			return nil, err
		}
		idxs, preset, err := e.sizesFor(cfg)
		if err != nil {
			return nil, err
		}
		s := spec()
		started := time.Now()
		tables, totals, err := s.runSerial(ctx, idxs, e.seedFor(cfg), engCfg(cfg))
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
		}
		return finish(cfg, preset, idxs, started, tables, totals), nil
	}
	e.Plan = func(cfg RunConfig) (*TaskPlan, error) {
		idxs, preset, err := e.sizesFor(cfg)
		if err != nil {
			return nil, err
		}
		s := spec()
		base := e.seedFor(cfg)
		// Same clock discipline as sweepExperiment: the elapsed clock starts
		// at the first task's start (or dispatch), not at plan derivation.
		started := time.Now() // fallback for empty ensembles
		var startedOnce sync.Once
		markStarted := func() { startedOnce.Do(func() { started = time.Now() }) }
		tasks := make([]Task, len(idxs))
		for i, idx := range idxs {
			idx := idx
			pseed := PointSeed(base, idx)
			k := s.key(idx, pseed)
			tasks[i] = Task{
				Label:       fmt.Sprintf("%s sample=%d", e.Name, idx),
				Seed:        pseed,
				InstanceKey: k.String(),
				Affinity:    k.Core().String(),
				Run: func(ctx context.Context) (any, error) {
					markStarted()
					if err := sweepStep(ctx); err != nil {
						return nil, err
					}
					p, err := s.sample(ctx, idx, pseed, engCfg(cfg))
					if err != nil {
						return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
					}
					return p, nil
				},
			}
		}
		return &TaskPlan{
			Tasks: tasks,
			Assemble: func(outs []any) (*Result, error) {
				points := make([]sweepPoint, len(outs))
				for i, o := range outs {
					p, ok := o.(sweepPoint)
					if !ok {
						return nil, fmt.Errorf("exp: %s: task %d output is %T, not a sweep point", e.Name, i, o)
					}
					points[i] = p
				}
				tables, totals, err := s.assemble(points)
				if err != nil {
					return nil, fmt.Errorf("exp: %s: %w", e.Name, err)
				}
				return finish(cfg, preset, idxs, started, tables, totals), nil
			},
			Encode:  encodeSweepPoint,
			Decode:  decodeSweepPoint,
			Started: markStarted,
		}, nil
	}
	return e
}
