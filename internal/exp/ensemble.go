package exp

// The ensemble-* experiment family: cross-ensemble statistics of a LOCAL
// algorithm over seeded random-tree families (graph.BuildGaltonWatson,
// graph.BuildLadder). An ensemble is a sweepSpec whose sweep values are
// sample indices (x-name "sample"): sample i's tree and IDs both derive from
// PointSeed(base, i), so the task scheduler parallelizes the ensemble across
// -jobs and -workers like any sweep, and the canonical result is
// byte-identical no matter how the samples are scheduled. Instead of a fit,
// an ensemble summarizes its samples in a second table (ensembleStats).
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

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/sim"
)

// ensembleStats is the summarize of an ensemble: the cross-ensemble
// statistics table after the per-sample table, and no fit — an ensemble has
// no scaling axis. Each point carries (TotalRounds, node-averaged rounds),
// and its row ends in the formatColorDist cell.
func ensembleStats(points []sweepPoint) ([]measure.Table, *Fit, error) {
	var sumTotal, maxTotal, sumAvg float64
	dist := map[int64]int64{}
	for i, p := range points {
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
			return nil, nil, fmt.Errorf("sample %d: distribution cell is %T, not string", i, p.row[len(p.row)-1])
		}
		if err := addColorDist(dist, cell); err != nil {
			return nil, nil, fmt.Errorf("sample %d: %w", i, err)
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
	return []measure.Table{stats}, nil, nil
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
// ensembles; the distribution cell is last, as ensembleStats expects.
var ensembleHeader = []string{"sample", "Δ", "total rounds", "node-avg rounds", "color distribution"}

// ensembleGWSpec declares a Linial-coloring ensemble over Galton-Watson
// trees with n nodes and uniform {0..maxChildren} offspring.
func ensembleGWSpec(n, maxChildren int) *sweepSpec {
	return &sweepSpec{
		header: ensembleHeader,
		title: fmt.Sprintf("E-ENS: Linial (Δ+1)-coloring over Galton-Watson(n=%d, c=%d) samples",
			n, maxChildren),
		xName:     "sample",
		summarize: ensembleStats,
		key:       func(_ int, seed uint64) inst.Key { return inst.GWKey(n, maxChildren, seed) },
		point: func(ctx context.Context, idx int, seed uint64, eng engineConfig) (sweepPoint, error) {
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
func ensembleLadderSpec(n int) *sweepSpec {
	return &sweepSpec{
		header:    ensembleHeader,
		title:     fmt.Sprintf("E-ENS: Linial (Δ+1)-coloring over ladder-tree(n=%d) samples", n),
		xName:     "sample",
		summarize: ensembleStats,
		key:       func(_ int, seed uint64) inst.Key { return inst.LadderKey(n, seed) },
		point: func(ctx context.Context, idx int, seed uint64, eng engineConfig) (sweepPoint, error) {
			tr, err := instances.Ladder(n, seed)
			if err != nil {
				return sweepPoint{}, err
			}
			return runLinialSample(ctx, idx, seed, eng, tr)
		},
	}
}
