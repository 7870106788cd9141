// Command lclsim runs a single algorithm on a generated instance and prints
// per-execution statistics (worst-case rounds, node-averaged rounds, output
// histogram). It is the quick way to poke at the library from the shell.
//
// Examples:
//
//	lclsim -alg 3coloring -n 100000
//	lclsim -alg 2coloring -n 2000 -shards 4
//	lclsim -alg hier35 -k 2 -scale 16
//	lclsim -alg weighted25 -n 50000 -delta 5 -d 2 -k 2
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/landscape"
	"repro/internal/sim"
	"repro/internal/weighted"
)

func main() {
	var (
		alg      = flag.String("alg", "3coloring", "3coloring | 2coloring | hier25 | hier35 | weighted25 | weighted35")
		n        = flag.Int("n", 10000, "instance size (target)")
		k        = flag.Int("k", 2, "hierarchy depth")
		delta    = flag.Int("delta", 5, "maximum degree Δ")
		d        = flag.Int("d", 2, "decline budget d")
		scale    = flag.Int("scale", 16, "log*-regime scale parameter T")
		seed     = flag.Uint64("seed", 1, "ID seed")
		parallel = flag.Int("parallel", 1, "simulator worker count (-1 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "simulator shard count (0/1 = unsharded, -1 = GOMAXPROCS); simulator-backed algorithms only")
	)
	flag.Parse()
	if err := run(*alg, *n, *k, *delta, *d, *scale, *seed, *parallel, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "lclsim:", err)
		os.Exit(1)
	}
}

func run(alg string, n, k, delta, d, scale int, seed uint64, parallel, shards int) error {
	switch alg {
	case "3coloring":
		tr, err := graph.BuildPath(n)
		if err != nil {
			return err
		}
		res, err := sim.NewEngine(
			sim.WithIDs(sim.DefaultIDs(n, seed)),
			sim.WithParallelism(parallel),
			sim.WithShards(shards),
		).Run(tr, coloring.LinialAlgorithm{Delta: 2})
		if err != nil {
			return err
		}
		reportShards(res)
		return report("Linial 3-coloring (O(log* n))", n, float64(res.TotalRounds), res.NodeAveraged())
	case "2coloring":
		tr, err := graph.BuildPath(n)
		if err != nil {
			return err
		}
		res, err := sim.NewEngine(
			sim.WithIDs(sim.DefaultIDs(n, seed)),
			sim.WithParallelism(parallel),
			sim.WithShards(shards),
		).Run(tr, coloring.TwoColorPathAlgorithm{})
		if err != nil {
			return err
		}
		reportShards(res)
		return report("2-coloring by propagation (Θ(n))", n, float64(res.TotalRounds), res.NodeAveraged())
	case "hier25", "hier35":
		variant := hierarchy.Coloring25
		if alg == "hier35" {
			variant = hierarchy.Coloring35
		}
		lengths := make([]int, k)
		gammas := make([]int, k-1)
		for i := 1; i <= k; i++ {
			lengths[i-1] = ipow(scale, 1<<uint(i-1))
		}
		for i := 1; i < k; i++ {
			gammas[i-1] = ipow(scale, 1<<uint(i-1))
		}
		h, err := graph.BuildHierarchical(lengths)
		if err != nil {
			return err
		}
		sched, err := hierarchy.NewSchedule(hierarchy.Params{
			Problem: hierarchy.Problem{K: k, Variant: variant},
			Gammas:  gammas,
		})
		if err != nil {
			return err
		}
		levels := graph.ComputeLevels(h.Tree, k)
		ids := sim.DefaultIDs(h.Tree.N(), seed)
		ex, err := hierarchy.RunAnalytic(h.Tree, levels, sched, ids)
		if err != nil {
			return err
		}
		if err := (hierarchy.Problem{K: k, Variant: variant}).Verify(h.Tree, levels, ex.Out); err != nil {
			return err
		}
		worst := 0
		for _, r := range ex.Rounds {
			if r > worst {
				worst = r
			}
		}
		return report(fmt.Sprintf("k-hierarchical %v (k=%d, T=%d)", variant, k, scale),
			h.Tree.N(), float64(worst), ex.NodeAveraged())
	case "weighted25", "weighted35":
		variant := hierarchy.Coloring25
		if alg == "weighted35" {
			variant = hierarchy.Coloring35
		}
		p := weighted.Problem{Variant: variant, Delta: delta, D: d, K: k}
		x, err := landscape.EfficiencyX(delta, d)
		if err != nil {
			return err
		}
		regime := landscape.RegimePolynomial
		if variant == hierarchy.Coloring35 {
			regime = landscape.RegimeLogStar
		}
		alphas, err := landscape.Alphas(regime, x, k)
		if err != nil {
			return err
		}
		lengths := make([]int, k)
		prod := 1
		base := float64(n) / float64(k)
		for i := 0; i < k-1; i++ {
			lengths[i] = max(2, int(math.Pow(base, alphas[i])))
			prod *= lengths[i]
		}
		lengths[k-1] = max(2, int(base)/prod)
		inst, err := weighted.BuildInstance(p, lengths, n/k)
		if err != nil {
			return err
		}
		split, err := inst.Split()
		if err != nil {
			return err
		}
		ids := sim.DefaultIDs(inst.Tree.N(), seed)
		var sol *weighted.Result
		if variant == hierarchy.Coloring25 {
			sol, err = weighted.SolvePoly(split, p, ids)
		} else {
			sol, err = weighted.SolveLogStar(split, p, ids, scale)
		}
		if err != nil {
			return err
		}
		if err := p.Verify(split, sol.Out); err != nil {
			return err
		}
		return report(fmt.Sprintf("Π^%v_{Δ=%d,d=%d,k=%d}", variant, delta, d, k),
			inst.Tree.N(), float64(sol.MaxRounds()), sol.NodeAveraged())
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}
}

// reportShards prints the per-shard statistics of a sharded run (nodes,
// boundary edges, crossing traffic, active rounds, machine steps); no-op
// for unsharded runs.
func reportShards(res *sim.Result) {
	if res.Shards == nil {
		return
	}
	var crossed int64
	for _, s := range res.Shards {
		crossed += s.MessagesCrossed
	}
	fmt.Printf("sharded run: %d shards, %d boundary messages crossed, %d machine steps\n",
		len(res.Shards), crossed, res.Steps)
	for _, s := range res.Shards {
		fmt.Printf("  shard %d: %d nodes, %d boundary edges, %d crossed, %d active rounds, %d steps\n",
			s.Shard, s.Nodes, s.BoundaryEdges, s.MessagesCrossed, s.ActiveRounds, s.Steps)
	}
}

func report(name string, n int, worst, avg float64) error {
	fmt.Printf("%s\n  n           = %d\n  worst case  = %.0f rounds\n  node-avg    = %.3f rounds\n",
		name, n, worst, avg)
	return nil
}

func ipow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
