package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/inst"
	"repro/internal/sim"
)

// BenchmarkPaperSweeps regenerates the paper's experiments through the
// registry, one sub-benchmark per experiment ID of the index in
// docs/EXPERIMENTS.md, at fixed sizes and seeds. Scaling sweeps report the fitted
// exponent and the paper's exponent(s) as custom metrics, so `go test
// -bench` regenerates the paper's scaling shapes.
func BenchmarkPaperSweeps(b *testing.B) {
	for _, bc := range []struct {
		name  string // sub-benchmark: the experiment ID (docs/EXPERIMENTS.md)
		exp   string // catalog entry
		sizes []int  // nil: the entry has no sweep axis
		seed  uint64
	}{
		{"E-T11", "hierarchical35-k2", []int{12, 24, 48, 96}, 1},
		{"E-T2T3", "weighted25-d5", []int{16000, 64000, 256000, 1024000}, 2},
		{"E-T4T5", "weighted35-d7", []int{16, 32, 64, 128, 256}, 3},
		{"E-L68", "weightaug-k2", []int{4000, 16000, 64000}, 4},
		{"E-C60", "twocoloring-gap", []int{200, 400, 800, 1600}, 5},
		{"E-L40", "copyfraction-d5", []int{1000, 4000, 16000, 64000}, 0},
		{"E-T1", "density-poly", nil, 0},
		{"E-T6", "density-logstar", nil, 0},
		{"E-T7", "pathlcl-classify", nil, 0},
		{"F1F2", "landscape-figures", nil, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				res, err := RunExperiment(ctx, bc.exp, RunConfig{Sizes: bc.sizes, Seed: bc.seed})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
					b.Fatal("empty tables")
				}
				if f := res.Fit; f != nil {
					b.ReportMetric(f.Slope, "fitted-exp")
					b.ReportMetric(f.TheorySlope, "theory-exp")
					if f.TheoryUpper != f.TheorySlope {
						b.ReportMetric(f.TheoryUpper, "theory-upper-exp")
					}
				}
			}
		})
	}
}

// BenchmarkGenericAlgorithm regenerates E-GEN: the Section-4.1 generic
// algorithm end to end on a lower-bound graph (analytic accounting).
func BenchmarkGenericAlgorithm(b *testing.B) {
	h, err := graph.BuildHierarchical([]int{30, 40})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: 2, Variant: hierarchy.Coloring35},
		Gammas:  []int{10},
	})
	if err != nil {
		b.Fatal(err)
	}
	levels := graph.ComputeLevels(h.Tree, 2)
	ids := sim.DefaultIDs(h.Tree.N(), 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.RunAnalytic(h.Tree, levels, sched, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryRun measures the registry execution path end to end:
// lookup, preset resolution, the quick E-C60 sweep, and JSON-native result
// assembly.
func BenchmarkRegistryRun(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(ctx, "twocoloring-gap", RunConfig{Preset: "quick"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fit == nil {
			b.Fatal("missing fit")
		}
	}
}

// BenchmarkInstanceCache measures what the keyed instance cache saves: a
// cold request pays the full graph.BuildHierarchical cost of the
// Definition-18/25 lower-bound instance, a warm request is a map hit on the
// shared tree.
func BenchmarkInstanceCache(b *testing.B) {
	lengths := []int{48, 2304} // the T=48 k=2 standard-preset instance, ~113k nodes
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := inst.New(0)
			if _, err := c.Hierarchical(lengths); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := inst.New(0)
		if _, err := c.Hierarchical(lengths); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Hierarchical(lengths); err != nil {
				b.Fatal(err)
			}
		}
		s := c.Stats()
		b.ReportMetric(float64(s.Hits), "hits")
		b.ReportMetric(float64(s.Builds), "builds")
	})
}

// BenchmarkBatchRunner compares the serial and concurrent execution of a
// representative batch at the quick preset (results are identical; only
// wall-clock differs).
func BenchmarkBatchRunner(b *testing.B) {
	names := []string{
		"twocoloring-gap", "survivors", "hierarchical35-k2",
		"copyfraction-d5", "weightaug-k2", "density-poly",
	}
	exps := make([]*Experiment, len(names))
	for i, name := range names {
		e, ok := LookupExperiment(name)
		if !ok {
			b.Fatalf("%q not registered", name)
		}
		exps[i] = e
	}
	ctx := context.Background()
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBatch(ctx, exps, BatchOptions{
					Jobs:   jobs,
					Config: RunConfig{Preset: "quick"},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepScheduler measures the task-level scheduler on a single
// sweep experiment: with tasks as the scheduling unit, -jobs parallelizes
// inside one sweep, so jobs > 1 shortens the batch's critical path on
// multi-core hosts (results are byte-identical at every level; only
// wall-clock differs).
func BenchmarkSweepScheduler(b *testing.B) {
	e, ok := LookupExperiment("twocoloring-gap")
	if !ok {
		b.Fatal("twocoloring-gap not registered")
	}
	ctx := context.Background()
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := RunBatch(ctx, []*Experiment{e}, BatchOptions{
					Jobs:   jobs,
					Config: RunConfig{Preset: "quick"},
				})
				if err != nil {
					b.Fatal(err)
				}
				if results[0].Fit == nil {
					b.Fatal("missing fit")
				}
			}
		})
	}
}

// BenchmarkEngineParallelism compares the engine's sequential and parallel
// backends on the message-heavy 2-coloring path (results are bit-identical
// across backends; only wall-clock differs).
func BenchmarkEngineParallelism(b *testing.B) {
	const n = 2000
	tr, err := graph.BuildPath(n)
	if err != nil {
		b.Fatal(err)
	}
	ids := sim.DefaultIDs(n, 1)
	for _, p := range []int{1, 2, 4, -1} { // -1 = GOMAXPROCS
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			eng := sim.NewEngine(sim.WithIDs(ids), sim.WithParallelism(p))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(tr, coloring.TwoColorPathAlgorithm{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimVsAnalytic is the dual-accounting ablation: the same generic
// algorithm once through the message-level simulator and once analytically.
func BenchmarkSimVsAnalytic(b *testing.B) {
	h, err := graph.BuildHierarchical([]int{12, 16})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: 2, Variant: hierarchy.Coloring35},
		Gammas:  []int{6},
	})
	if err != nil {
		b.Fatal(err)
	}
	levels := graph.ComputeLevels(h.Tree, 2)
	ids := sim.DefaultIDs(h.Tree.N(), 3)
	inputs := make([]any, len(levels))
	for i, l := range levels {
		inputs[i] = l
	}
	b.Run("simulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.NewEngine(
				sim.WithIDs(ids), sim.WithInputs(inputs), sim.WithMaxRounds(8*h.Tree.N()+256),
			).Run(h.Tree, hierarchy.Generic{Schedule: sched}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hierarchy.RunAnalytic(h.Tree, levels, sched, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}
