package weighted

import (
	"fmt"

	"repro/internal/dfree"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/landscape"
	"repro/internal/sim"
)

// Result is an execution of a weighted-problem algorithm: per-node outputs
// and termination rounds.
type Result struct {
	Out []Output
	sim.Rounds
}

// SolvePoly runs A_poly (Section 7.1) for Π^{2.5}_{Δ,d,k}: active components
// execute the generic phase algorithm with γ_i = ⌈n^{α_i}⌉ (the optimal
// exponents of Lemma 33 for x = log(Δ−1−d)/log(Δ−1)); weight components
// solve the d-free weight problem with Algorithm 𝒜; Copy components flood
// the output of the first active neighbor of their A-node to terminate.
//
// The execution is computed analytically: each node is charged the
// termination round of the corresponding LOCAL algorithm. The active side's
// rounds come from hierarchy.RunAnalytic, which the hierarchy tests match
// against the message-level Generic machine; the weight side's rounds come
// from dfree.Solve and the Copy flood, which no simulation checks yet.
func SolvePoly(s *hierarchy.Split, p Problem, ids []uint64) (*Result, error) {
	if p.Variant != hierarchy.Coloring25 {
		return nil, fmt.Errorf("weighted: SolvePoly requires the 2½ variant, got %v", p.Variant)
	}
	x, err := landscape.EfficiencyX(p.Delta, p.D)
	if err != nil {
		return nil, err
	}
	alphas, err := landscape.Alphas(landscape.RegimePolynomial, x, p.K)
	if err != nil {
		return nil, err
	}
	t, active := s.Tree, s.Mask
	n := t.N()
	if len(ids) != n {
		return nil, fmt.Errorf("weighted: %d ids for n=%d", len(ids), n)
	}
	res := &Result{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
	}
	if err := runActiveComponents(s, p, ids, hierarchy.Gammas(n, alphas), res); err != nil {
		return nil, err
	}

	// Weight components: d-free weight problem via Algorithm 𝒜, on one
	// Greedy for all of them.
	var greedy dfree.Greedy
	for _, comp := range s.Weight {
		dfInputs := make([]dfree.Input, len(comp.Nodes))
		for i, v := range comp.Nodes {
			for _, w := range t.NeighborsRaw(v) {
				if active[w] {
					dfInputs[i] = dfree.InputA
					break
				}
			}
		}
		sol, err := dfree.Solve(comp.Tree, dfInputs, p.D, &greedy)
		if err != nil {
			return nil, err
		}
		base := sol.Rounds
		for i, v := range comp.Nodes {
			switch sol.Out[i] {
			case dfree.OutConnect:
				res.Out[v] = Output{Kind: KindConnect}
				res.Rounds[v] = base
			case dfree.OutDecline:
				res.Out[v] = Output{Kind: KindDecline}
				res.Rounds[v] = base
			}
		}
		for _, set := range sol.CopySets {
			if err := floodCopySet(t, active, comp, set, base, res); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// runActiveComponents runs the hierarchical generic algorithm on every
// active component and records outputs and rounds.
func runActiveComponents(s *hierarchy.Split, p Problem, ids []uint64, gammas []int, res *Result) error {
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: p.K, Variant: p.Variant},
		Gammas:  gammas,
	})
	if err != nil {
		return err
	}
	return hierarchy.RunAnalyticOn(s, sched, ids, func(v int, lab hierarchy.Label, round int) {
		res.Out[v] = Output{Kind: KindActive, Label: lab}
		res.Rounds[v] = round
	})
}

// floodCopySet assigns Copy outputs to a copy component: its A-node adopts
// the output of its first-terminating active neighbor and floods it through
// the set (one hop per round), starting no earlier than base.
func floodCopySet(t *graph.Tree, active []bool, comp *graph.Component, set dfree.CopySet, base int, res *Result) error {
	origRoot := comp.Nodes[set.Nodes[0]]
	u := hierarchy.FirstActive(t, origRoot, active, res.Rounds)
	if u == -1 {
		return fmt.Errorf("weighted: copy root %d has no active neighbor", origRoot)
	}
	start := max(base, res.Rounds[u]+1)
	for q, v := range set.Nodes {
		orig := comp.Nodes[v]
		res.Out[orig] = Output{Kind: KindCopy, Label: res.Out[u].Label}
		res.Rounds[orig] = start + set.Depth[q]
	}
	return nil
}
