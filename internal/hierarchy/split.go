package hierarchy

import (
	"fmt"

	"repro/internal/graph"
)

// Split is a tree cut by its active mask: the connected components of the
// active nodes, each with its Definition-8 levels at depth K, and the
// connected components of the other nodes (the weight side). The solvers
// and verifiers of the weighted and weight-augmented problems run on these
// parts; a sweep point builds one Split, passes it to its solver and its
// verifier, and drops it, so the parts are derived once per point and never
// cached with the instance.
type Split struct {
	Tree *graph.Tree
	// Mask marks the active nodes.
	Mask []bool
	// K is the depth of Levels.
	K int
	// Active holds the active components in order of their lowest-indexed
	// node (graph.InducedComponents); Levels[c] is graph.ComputeLevels of
	// Active[c] at depth K.
	Active []*graph.Component
	Levels [][]int
	// Weight holds the components of the unmasked nodes, ordered like Active.
	Weight []*graph.Component
}

// NewSplit cuts t by mask (true = active) and computes the active
// components' levels at depth k. The Split keeps mask as its Mask, so the
// caller must not change it afterwards.
func NewSplit(t *graph.Tree, mask []bool, k int) (*Split, error) {
	if len(mask) != t.N() {
		return nil, fmt.Errorf("hierarchy: mask of length %d for n=%d", len(mask), t.N())
	}
	s := &Split{Tree: t, Mask: mask, K: k}
	s.Active, s.Weight = graph.InducedComponents(t, mask)
	s.Levels = make([][]int, len(s.Active))
	for c, comp := range s.Active {
		s.Levels[c] = graph.ComputeLevels(comp.Tree, k)
	}
	return s, nil
}

// depthError reports a Split whose levels are not at the depth k a
// solver or verifier needs, or nil.
func (s *Split) depthError(k int) error {
	if s.K != k {
		return fmt.Errorf("hierarchy: split has levels at depth %d, want k=%d", s.K, k)
	}
	return nil
}
