package weighted

import (
	"fmt"
	"math"

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
// termination round of the corresponding LOCAL algorithm (the hierarchy and
// dfree layers are individually cross-validated against message-level
// simulation in their own packages; see DESIGN.md "dual round accounting").
func SolvePoly(t *graph.Tree, inputs []NodeInput, p Problem, ids []uint64) (*Result, error) {
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
	gammas := make([]int, p.K-1)
	for i, a := range alphas {
		gammas[i] = int(math.Ceil(math.Pow(float64(t.N()), a)))
		if gammas[i] < 1 {
			gammas[i] = 1
		}
	}
	return solveWithDFree(t, inputs, p, ids, gammas)
}

// solveWithDFree is the shared A_poly skeleton, parameterized by the
// active-side γ values.
func solveWithDFree(t *graph.Tree, inputs []NodeInput, p Problem, ids []uint64, gammas []int) (*Result, error) {
	n := t.N()
	if len(inputs) != n || len(ids) != n {
		return nil, fmt.Errorf("weighted: inputs/ids length mismatch (n=%d)", n)
	}
	res := &Result{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
	}
	if err := runActiveComponents(t, inputs, p, ids, gammas, res); err != nil {
		return nil, err
	}

	// Weight components: d-free weight problem via Algorithm 𝒜.
	weightMask := make([]bool, n)
	for v := 0; v < n; v++ {
		weightMask[v] = inputs[v] == InputWeight
	}
	for _, comp := range graph.InducedComponents(t, weightMask) {
		dfInputs := make([]dfree.Input, len(comp.Nodes))
		for i, v := range comp.Nodes {
			for _, w := range t.NeighborsRaw(v) {
				if inputs[w] == InputActive {
					dfInputs[i] = dfree.InputA
					break
				}
			}
		}
		sol, err := dfree.Solve(comp.Tree, dfInputs, p.D)
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
		for root, set := range sol.CopySets {
			if err := floodCopySet(t, comp, root, set, base, res); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// runActiveComponents runs the hierarchical generic algorithm on every
// active component and records outputs and rounds.
func runActiveComponents(t *graph.Tree, inputs []NodeInput, p Problem, ids []uint64, gammas []int, res *Result) error {
	n := t.N()
	activeMask := make([]bool, n)
	for v := 0; v < n; v++ {
		activeMask[v] = inputs[v] == InputActive
	}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: p.K, Variant: p.Variant},
		Gammas:  gammas,
	})
	if err != nil {
		return err
	}
	for _, comp := range graph.InducedComponents(t, activeMask) {
		levels := graph.ComputeLevels(comp.Tree, p.K)
		compIDs := make([]uint64, len(comp.Nodes))
		for i, v := range comp.Nodes {
			compIDs[i] = ids[v]
		}
		ex, err := hierarchy.RunAnalytic(comp.Tree, levels, sched, compIDs)
		if err != nil {
			return err
		}
		for i, v := range comp.Nodes {
			res.Out[v] = Output{Kind: KindActive, Label: ex.Out[i]}
			res.Rounds[v] = ex.Rounds[i]
		}
	}
	return nil
}

// floodCopySet assigns Copy outputs to a copy component: the A-node root
// adopts the output of its first-terminating active neighbor and floods it
// through the set (one hop per round).
func floodCopySet(t *graph.Tree, comp *graph.Component, root int, set []int, base int, res *Result) error {
	origRoot := comp.Nodes[root]
	bestT := -1
	var bestLabel hierarchy.Label
	for _, w := range t.NeighborsRaw(origRoot) {
		u := int(w)
		if res.Out[u].Kind == KindActive {
			if bestT == -1 || res.Rounds[u] < bestT {
				bestT = res.Rounds[u]
				bestLabel = res.Out[u].Label
			}
		}
	}
	if bestT == -1 {
		return fmt.Errorf("weighted: copy root %d has no active neighbor", origRoot)
	}
	start := base
	if bestT+1 > start {
		start = bestT + 1
	}
	for v, depth := range copySetDepths(comp.Tree, root, set) {
		orig := comp.Nodes[v]
		res.Out[orig] = Output{Kind: KindCopy, Label: bestLabel}
		res.Rounds[orig] = start + depth
	}
	return nil
}

// copySetDepths returns BFS depths from root within the given node set (all
// in component indices).
func copySetDepths(t *graph.Tree, root int, set []int) map[int]int {
	inSet := make(map[int]bool, len(set))
	for _, v := range set {
		inSet[v] = true
	}
	depth := map[int]int{root: 0}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if inSet[u] {
				if _, ok := depth[u]; !ok {
					depth[u] = depth[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return depth
}
