package weighted

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dfree"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/landscape"
)

// connectRound is the constant round at which the 5-hop Connect
// preprocessing of Section 8.2 completes.
const connectRound = 5

// SolveLogStar runs the generic Π^{3.5}_{Δ,d,k} algorithm of Section 8.2.
//
// Active components execute the hierarchical generic algorithm with
// γ_i = ⌈scale^{α_i}⌉ where the α_i are the optimal log*-regime exponents of
// Lemma 36 for x′ = log(Δ−d+1)/log(Δ−1). In the paper, scale = log* n; since
// log* n is bounded by 5 for any graph that fits in a computer, experiments
// sweep the scale parameter directly.
//
// Weight components follow the adapted fast-decomposition scheme: A-nodes
// within distance 5 Connect; the rest of the component is peeled by
// rake-and-compress (our substitute for [BBK+23a]'s Fast Decomposition
// Algorithm, with a node's termination charged proportionally to its peeling
// iteration — O(1) node-averaged by geometric decay); each remaining A-node
// v owns a domain C(v), the weight nodes a multi-source BFS from the
// remaining A-nodes assigns to it, which dfree.Greedy — Algorithm 𝒜's
// greedy 𝒜*, grown over the domain instead of a ball — prunes to a Copy set
// C′(v) of size O(|C(v)|^{x′}) by declining the d−2 heaviest children of
// every Copy node (Lemma 52); Copy nodes wait for v's active neighbor and
// then flood its output.
func SolveLogStar(s *hierarchy.Split, p Problem, ids []uint64, scale int) (*Result, error) {
	if p.Variant != hierarchy.Coloring35 {
		return nil, fmt.Errorf("weighted: SolveLogStar requires the 3½ variant, got %v", p.Variant)
	}
	if p.D < 3 {
		return nil, fmt.Errorf("weighted: SolveLogStar requires d >= 3 (Theorem 5), got %d", p.D)
	}
	if scale < 1 {
		return nil, fmt.Errorf("weighted: scale %d < 1", scale)
	}
	t, active := s.Tree, s.Mask
	n := t.N()
	if len(ids) != n {
		return nil, fmt.Errorf("weighted: %d ids for n=%d", len(ids), n)
	}
	xPrime, err := landscape.EfficiencyXPrime(p.Delta, p.D)
	if err != nil {
		return nil, err
	}
	if xPrime > 1 {
		xPrime = 1
	}
	alphas, err := landscape.Alphas(landscape.RegimeLogStar, xPrime, p.K)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
	}
	if err := runActiveComponents(s, p, ids, hierarchy.Gammas(scale, alphas), res); err != nil {
		return nil, err
	}
	var greedy dfree.Greedy
	for _, comp := range s.Weight {
		if err := solveWeightComponent35(t, active, p, comp, &greedy, res); err != nil {
			return nil, err
		}
	}
	if err := repairCopyBudget(t, active, p, res); err != nil {
		return nil, err
	}
	return res, nil
}

func solveWeightComponent35(t *graph.Tree, active []bool, p Problem, comp *graph.Component, greedy *dfree.Greedy, res *Result) error {
	m := comp.Tree.N()
	isA := make([]bool, m)
	for i, v := range comp.Nodes {
		for _, w := range t.NeighborsRaw(v) {
			if active[w] {
				isA[i] = true
				break
			}
		}
	}
	// Step 1: A-nodes within distance 5 of each other Connect the joining
	// path.
	connect := dfree.ShortPathConnect(comp.Tree, isA, connectRound)
	// Step 2: peel the component; the iteration of a node's layer assignment
	// drives its termination round.
	dec, err := decomp.Compute(comp.Tree, nil, decomp.Options{Gamma: 1, Ell: 3})
	if err != nil {
		return err
	}
	declineRound := func(i int) int { return int(dec.Assign[i].Iter) + connectRound }
	// Step 3: domains of the remaining A-nodes (multi-source BFS avoiding
	// Connect nodes; ties to the lower-indexed A-node).
	domain := make([]int, m) // component index of the owning A-node, -1 none
	var sources []int
	for i := range domain {
		domain[i] = -1
		if isA[i] && !connect[i] {
			domain[i] = i
			sources = append(sources, i)
		}
	}
	queue := append(make([]int, 0, m), sources...)
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		for _, w := range comp.Tree.NeighborsRaw(i) {
			j := int(w)
			if domain[j] == -1 && !connect[j] {
				domain[j] = domain[i]
				queue = append(queue, j)
			}
		}
	}
	// Defaults: Connect / Decline.
	for i, v := range comp.Nodes {
		if connect[i] {
			res.Out[v] = Output{Kind: KindConnect}
			res.Rounds[v] = connectRound
		} else {
			res.Out[v] = Output{Kind: KindDecline}
			res.Rounds[v] = declineRound(i)
		}
	}
	// Step 4: per domain, prune to the Copy set C'(v) (Lemma 52: every Copy
	// node declines its d−2 heaviest children) and flood the active
	// neighbor's output.
	for _, root := range sources {
		set := greedy.Grow(comp.Tree, root, p.D-2, m, func(v int) bool { return domain[v] == root })
		if err := floodCopySet(t, active, comp, set, declineRound(root), res); err != nil {
			return err
		}
	}
	return nil
}

// repairCopyBudget demotes Copy nodes that ended up with more than d
// Decline neighbors or with a secondary-label conflict against an adjacent
// Copy node (possible only at domain boundaries in irregular instances;
// never on the paper's constructions). Demoting a weight node that sits next
// to an active node would violate property 2, so that case is an error.
func repairCopyBudget(t *graph.Tree, active []bool, p Problem, res *Result) error {
	adjActive := func(v int) bool {
		for _, w := range t.NeighborsRaw(v) {
			if active[w] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < t.N(); v++ {
			if res.Out[v].Kind != KindCopy {
				continue
			}
			declines := 0
			conflict := -1
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if res.Out[u].Kind == KindDecline {
					declines++
				}
				if res.Out[u].Kind == KindCopy && res.Out[u].Label != res.Out[v].Label {
					conflict = u
				}
			}
			if declines > p.D {
				if adjActive(v) {
					return fmt.Errorf("weighted: A-node %d exceeds decline budget and cannot be demoted", v)
				}
				res.Out[v] = Output{Kind: KindDecline}
				changed = true
				continue
			}
			if conflict >= 0 {
				victim := v
				if adjActive(v) {
					victim = conflict
				}
				if adjActive(victim) {
					return fmt.Errorf("weighted: adjacent A-nodes %d and %d copy conflicting labels", v, conflict)
				}
				res.Out[victim] = Output{Kind: KindDecline}
				changed = true
			}
		}
	}
	return nil
}
