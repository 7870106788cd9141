package labeling

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/sim"
)

// Secondary is the secondary output of a weight node in the weight-augmented
// problem: either Decline or a label from the active alphabet.
type Secondary struct {
	Decline bool
	Label   hierarchy.Label
}

// String formats the secondary output.
func (s Secondary) String() string {
	if s.Decline {
		return "Decline"
	}
	return s.Label.String()
}

// AugOutput is a node's output for the k-hierarchical weight-augmented
// 2½-coloring (Definition 67).
type AugOutput struct {
	// Active is the hierarchical output of an active node (LabelNone on
	// weight nodes).
	Active hierarchy.Label
	// Weight-side outputs: the k-hierarchical labeling output plus the
	// secondary output.
	WLabel    Label
	OutNode   int
	Secondary Secondary
}

// AugInstance is a weight-augmented instance: a tree with Active/Weight
// marks.
type AugInstance struct {
	K      int
	Delta  int
	Tree   *graph.Tree
	Weight []bool // true = weight node
}

// BuildAugInstance builds the Definition-25-style instance for the
// weight-augmented problem: a k-hierarchical core with path lengths lengths,
// and weightPerLevel weight nodes distributed evenly as balanced
// Δ-regular trees over the construction levels 2..k.
func BuildAugInstance(k, delta int, lengths []int, weightPerLevel int) (*AugInstance, error) {
	if k >= 2 && len(lengths) != k {
		return nil, fmt.Errorf("labeling: %d lengths for k=%d", len(lengths), k)
	}
	if err := validateAugParams(k, delta); err != nil {
		return nil, err
	}
	h, err := graph.BuildHierarchical(lengths)
	if err != nil {
		return nil, err
	}
	return BuildAugInstanceFrom(k, delta, h, weightPerLevel)
}

// BuildAugInstanceFrom builds the same construction around a prebuilt
// hierarchical core. The instance references h's tree without modifying it,
// so a shared (cached) core can back many composites; internal/inst routes
// its keyed AugKey entries through here.
func BuildAugInstanceFrom(k, delta int, h *graph.Hierarchical, weightPerLevel int) (*AugInstance, error) {
	if err := validateAugParams(k, delta); err != nil {
		return nil, err
	}
	if h.K != k {
		return nil, fmt.Errorf("labeling: %d-level core for k=%d", h.K, k)
	}
	tree, err := graph.BuildWeightedHierarchical(h, delta, weightPerLevel)
	if err != nil {
		return nil, err
	}
	weight := make([]bool, tree.N())
	for v := h.Tree.N(); v < tree.N(); v++ {
		weight[v] = true
	}
	return &AugInstance{
		K:      k,
		Delta:  delta,
		Tree:   tree,
		Weight: weight,
	}, nil
}

// Split returns the instance cut into its active components, with their
// Definition-8 levels at depth K, and its weight components: the one input
// of SolveAug and VerifyAug. A sweep point builds it once and passes it to
// both.
func (in *AugInstance) Split() (*hierarchy.Split, error) {
	return hierarchy.NewSplit(in.Tree, graph.Mask(in.Tree, func(v int) bool { return !in.Weight[v] }), in.K)
}

// validateAugParams holds the checks shared by BuildAugInstance and
// BuildAugInstanceFrom.
func validateAugParams(k, delta int) error {
	if k < 2 {
		return fmt.Errorf("labeling: augmented construction needs k >= 2, got %d", k)
	}
	if delta < 4 {
		return fmt.Errorf("labeling: Δ = %d < 4", delta)
	}
	return nil
}

// AugResult is an execution of the weight-augmented solver.
type AugResult struct {
	Out []AugOutput
	sim.Rounds
}

// SolveAug solves the k-hierarchical weight-augmented 2½-coloring
// (Definition 67), k = s.K, on the Split s of an instance (masked nodes
// active, the rest weight) with node-averaged complexity Θ(n^{1/k})
// (Lemma 69):
// active components run the generic 2½ algorithm with γ_i = ⌈n^{1/k}⌉ (the
// x = 1 exponents); weight components compute a k-hierarchical labeling with
// the active-adjacent nodes pinned; secondary outputs then flow down the
// orientation — every rake chain copies the value of the node it points to,
// ultimately the active output (Lemma 68: an Ω(1) fraction of every attached
// weight tree waits for its active node), while compress subtrees decline.
//
// SolveAug is a solver for the paper's construction (BuildAugInstance), not
// for every Active/Weight assignment. Elsewhere it returns ErrInfeasible
// where that scheme does not yield a valid output: when pinned nodes are
// adjacent, when the weight side needs more than k decomposition
// iterations, and when a declining compress node would point at a node that
// copies a label (rule 4). Every output it returns passes VerifyAug.
func SolveAug(s *hierarchy.Split, ids []uint64) (*AugResult, error) {
	t, active, k := s.Tree, s.Mask, s.K
	n := t.N()
	if len(ids) != n {
		return nil, fmt.Errorf("labeling: %d ids for n=%d", len(ids), n)
	}
	alphas := make([]float64, k-1)
	for i := range alphas {
		alphas[i] = 1 / float64(k)
	}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: k, Variant: hierarchy.Coloring25},
		Gammas:  hierarchy.Gammas(n, alphas),
	})
	if err != nil {
		return nil, err
	}
	res := &AugResult{
		Out:    make([]AugOutput, n),
		Rounds: make([]int, n),
	}
	for v := range res.Out {
		res.Out[v].OutNode = -1
	}
	err = hierarchy.RunAnalyticOn(s, sched, ids, func(v int, lab hierarchy.Label, round int) {
		res.Out[v].Active = lab
		res.Rounds[v] = round
	})
	if err != nil {
		return nil, err
	}
	for _, comp := range s.Weight {
		if err := solveAugWeightComponent(t, active, k, comp, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func solveAugWeightComponent(t *graph.Tree, active []bool, k int, comp *graph.Component, res *AugResult) error {
	pinned := make([]bool, comp.Tree.N())
	for i, v := range comp.Nodes {
		pinned[i] = hierarchy.FirstActive(t, v, active, res.Rounds) >= 0
	}
	sol, err := Solve(comp.Tree, k, pinned)
	if err != nil {
		return err
	}
	// Secondary assignment in reverse removal order: a node's orientation
	// target leaves after it, so its secondary is already set.
	for j := len(sol.Order) - 1; j >= 0; j-- {
		i := int(sol.Order[j])
		v := comp.Nodes[i]
		res.Out[v].WLabel = sol.Out[i].Label
		switch {
		case pinned[i]:
			// Rule 3: orient toward the first-terminating active neighbor
			// and copy it.
			u := hierarchy.FirstActive(t, v, active, res.Rounds)
			res.Out[v].OutNode = u
			res.Out[v].Secondary = Secondary{Label: res.Out[u].Active}
			res.Rounds[v] = max(sol.Rounds[i], res.Rounds[u]+1)
		case !sol.Out[i].Label.IsRake():
			// Rule 5: compress nodes not adjacent to an active decline, and
			// by rule 4 so must their target.
			res.Out[v].Secondary = Secondary{Decline: true}
			if o := sol.Out[i].OutNode; o >= 0 {
				u := comp.Nodes[o]
				if !res.Out[u].Secondary.Decline {
					return fmt.Errorf("%w: declining compress node %d points at weight node %d, which copies %v",
						ErrInfeasible, v, u, res.Out[u].Secondary)
				}
				res.Out[v].OutNode = u
			}
			res.Rounds[v] = sol.Rounds[i]
		case sol.Out[i].OutNode < 0:
			// A rake node with no target (last survivor of an active-free
			// component) originates an arbitrary legal label.
			res.Out[v].Secondary = Secondary{Label: hierarchy.LabelW}
			res.Rounds[v] = sol.Rounds[i]
		default:
			// Rule 4: copy the secondary of the orientation target.
			u := comp.Nodes[sol.Out[i].OutNode]
			res.Out[v].OutNode = u
			res.Out[v].Secondary = res.Out[u].Secondary
			res.Rounds[v] = max(sol.Rounds[i], res.Rounds[u]+1)
		}
	}
	return nil
}

// VerifyAug checks the rules of Definition 67 on the Split s of an instance
// (masked nodes active, the rest weight), k = s.K, read as follows: (1) active
// components solve k-hierarchical 2½-coloring; (2) weight components solve
// the k-hierarchical labeling problem (with active-adjacent nodes treated as
// pinned); (3) every weight node adjacent to an active node points at
// exactly one of them and copies its output; (4) a weight node pointing at
// another weight node carries the same secondary; (5) a compress node
// declines iff it is not adjacent to an active node, and only compress nodes
// *originate* Decline (rake chains may inherit it).
func VerifyAug(s *hierarchy.Split, out []AugOutput) error {
	t, active, k := s.Tree, s.Mask, s.K
	n := t.N()
	if len(out) != n {
		return fmt.Errorf("labeling: %d outputs for n=%d", len(out), n)
	}
	for v := range out {
		if u := out[v].OutNode; u < -1 || u >= n {
			return fmt.Errorf("%w: node %d points at %d, not a node or -1", ErrInvalid, v, u)
		}
	}
	hp := hierarchy.Problem{K: k, Variant: hierarchy.Coloring25}
	label := func(v int) hierarchy.Label { return out[v].Active }
	if err := hp.VerifyOn(s, label); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	for _, comp := range s.Weight {
		pinned := make([]bool, comp.Tree.N())
		for i, v := range comp.Nodes {
			for _, w := range t.NeighborsRaw(v) {
				if active[w] {
					pinned[i] = true
				}
			}
		}
		wout := make([]Output, comp.Tree.N())
		for i, v := range comp.Nodes {
			wout[i] = Output{Label: out[v].WLabel, OutNode: -1}
			if u := out[v].OutNode; u >= 0 && comp.IndexOf(u) >= 0 {
				wout[i].OutNode = comp.IndexOf(u)
			}
		}
		if err := Verify(comp.Tree, k, pinned, wout); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		if active[v] {
			continue
		}
		adjActive := false
		for _, w := range t.NeighborsRaw(v) {
			if active[w] {
				adjActive = true
			}
		}
		target := out[v].OutNode
		if adjActive {
			// Rule 3.
			if target < 0 || !active[target] || !t.HasEdge(v, target) {
				return fmt.Errorf("%w: active-adjacent weight node %d does not point at an active neighbor",
					ErrInvalid, v)
			}
			if out[v].Secondary.Decline || out[v].Secondary.Label != out[target].Active {
				return fmt.Errorf("%w: weight node %d secondary %v != active output %v",
					ErrInvalid, v, out[v].Secondary, out[target].Active)
			}
			continue
		}
		// Rule 5.
		if !out[v].WLabel.IsRake() && !out[v].Secondary.Decline {
			return fmt.Errorf("%w: compress node %d without active neighbor must decline", ErrInvalid, v)
		}
		// Rule 4.
		if target >= 0 && !active[target] && out[v].Secondary != out[target].Secondary {
			return fmt.Errorf("%w: weight node %d secondary %v != target %d secondary %v",
				ErrInvalid, v, out[v].Secondary, target, out[target].Secondary)
		}
		// Origination restriction: a rake node with no weight target must
		// not declare Decline.
		if out[v].WLabel.IsRake() && target < 0 && out[v].Secondary.Decline {
			return fmt.Errorf("%w: rake node %d originates Decline", ErrInvalid, v)
		}
	}
	return nil
}
