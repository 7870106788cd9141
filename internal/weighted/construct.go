package weighted

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// Instance is a concrete input for Π^Z_{Δ,d,k}: a tree plus Active/Weight
// input labels, with construction metadata.
type Instance struct {
	Problem Problem
	Tree    *graph.Tree
	Inputs  []NodeInput
	// Hier is the active-core construction metadata (indices of the active
	// nodes coincide with the hierarchical graph's node indices).
	Hier *graph.Hierarchical
}

// Split returns NewSplit of the instance at its problem's depth k. A sweep
// point builds it once and passes it to the solver and the verifier.
func (in *Instance) Split() (*hierarchy.Split, error) {
	return NewSplit(in.Tree, in.Inputs, in.Problem.K)
}

// BuildInstance builds the weighted lower-bound construction of
// Definition 25 (Figure 4): the k-hierarchical lower-bound graph with path
// lengths `lengths` forms the active core; for every construction level
// i = 2..k, weightPerLevel weight nodes are distributed evenly among the
// level-i nodes as balanced Δ-regular trees, one per node.
func BuildInstance(p Problem, lengths []int, weightPerLevel int) (*Instance, error) {
	if p.K >= 2 && len(lengths) != p.K {
		return nil, fmt.Errorf("weighted: %d lengths for k=%d", len(lengths), p.K)
	}
	if err := validateInstanceParams(p, weightPerLevel); err != nil {
		return nil, err
	}
	h, err := graph.BuildHierarchical(lengths)
	if err != nil {
		return nil, err
	}
	return BuildInstanceFrom(p, h, weightPerLevel)
}

// BuildInstanceFrom builds the Definition-25 construction around a prebuilt
// hierarchical core. The instance keeps a reference to h (as Instance.Hier)
// but never modifies it, so one core — e.g. a cached graph.Hierarchical from
// internal/inst — can back many composite instances with different weight
// budgets or problem parameters.
func BuildInstanceFrom(p Problem, h *graph.Hierarchical, weightPerLevel int) (*Instance, error) {
	if err := validateInstanceParams(p, weightPerLevel); err != nil {
		return nil, err
	}
	if h.K != p.K {
		return nil, fmt.Errorf("weighted: %d-level core for k=%d", h.K, p.K)
	}
	tree, err := graph.BuildWeightedHierarchical(h, p.Delta, weightPerLevel)
	if err != nil {
		return nil, err
	}
	inputs := make([]NodeInput, tree.N())
	for v := h.Tree.N(); v < tree.N(); v++ {
		inputs[v] = InputWeight
	}
	return &Instance{
		Problem: p,
		Tree:    tree,
		Inputs:  inputs,
		Hier:    h,
	}, nil
}

// validateInstanceParams holds the checks shared by BuildInstance and
// BuildInstanceFrom.
func validateInstanceParams(p Problem, weightPerLevel int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.K < 2 {
		return fmt.Errorf("weighted: construction needs k >= 2, got %d", p.K)
	}
	if weightPerLevel < 0 {
		return fmt.Errorf("weighted: negative weight budget %d", weightPerLevel)
	}
	return nil
}
