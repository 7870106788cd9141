package graph

import (
	"errors"
	"fmt"
)

// ErrBadParam indicates an invalid construction parameter.
var ErrBadParam = errors.New("invalid construction parameter")

// BuildPath returns a simple path with n >= 1 nodes, indexed 0..n-1 in path
// order.
func BuildPath(n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: path length %d", ErrBadParam, n)
	}
	b := NewBuilder(n)
	b.AddNodes(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(i-1, i); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// BuildStar returns a star with one center (index 0) and leaves 1..n-1.
func BuildStar(n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: star size %d", ErrBadParam, n)
	}
	b := NewBuilder(n)
	b.AddNodes(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(0, i); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// BuildBalanced returns a balanced tree with maximum degree delta and exactly
// size nodes: node 0 is the root with up to delta-1 children and every other
// internal node has up to delta-1 children, filled in BFS order. This is the
// "balanced Δ-regular tree of weight nodes" shape used by Lemma 23 and the
// weighted construction (Definition 25); its root is meant to be attached to
// one further node, bringing the root's total degree to delta.
func BuildBalanced(delta, size int) (*Tree, error) {
	if size < 1 {
		return nil, fmt.Errorf("%w: balanced tree size %d", ErrBadParam, size)
	}
	if delta < 2 {
		return nil, fmt.Errorf("%w: balanced tree degree %d < 2", ErrBadParam, delta)
	}
	b := NewBuilder(size)
	if err := fillBalanced(b, b.AddNodes(size), size, delta); err != nil {
		return nil, err
	}
	return b.Build()
}

// fillBalanced connects the size nodes first, first+1, ... of b into a
// balanced tree rooted at first: in index order, every node takes the next
// up to delta-1 unconnected nodes as its children.
func fillBalanced(b *Builder, first, size, delta int) error {
	next, last := first+1, first+size-1
	for v := first; v <= last && next <= last; v++ {
		for c := 0; c < delta-1 && next <= last; c++ {
			if err := b.AddEdge(v, next); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}

// BuildCaterpillar returns a spine path of spineLen nodes with legLen-node
// legs attached to every spine node. Used as a generic test workload.
func BuildCaterpillar(spineLen, legLen int) (*Tree, error) {
	if spineLen < 1 || legLen < 0 {
		return nil, fmt.Errorf("%w: caterpillar %dx%d", ErrBadParam, spineLen, legLen)
	}
	b := NewBuilder(spineLen * (legLen + 1))
	b.AddNodes(spineLen)
	for i := 1; i < spineLen; i++ {
		if err := b.AddEdge(i-1, i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spineLen; i++ {
		if _, err := b.AttachPath(i, legLen); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Hierarchical is a k-hierarchical lower-bound graph (Definition 18) together
// with its construction metadata.
type Hierarchical struct {
	Tree *Tree
	// K is the number of levels.
	K int
	// Lengths are the path-length parameters ell_1..ell_k (Lengths[i-1] is
	// ell_i).
	Lengths []int
	// ConsLevel[v] is the construction level of node v: the level of the path
	// v was created in. Construction levels agree with the peeling levels of
	// Definition 8 except possibly at O(1) boundary nodes per path (path
	// endpoints whose degree drops early); solvers and verifiers always use
	// ComputeLevels, this field is for instrumentation.
	ConsLevel []uint8
	// Paths[i-1] lists the node index sequences of the level-i paths in
	// construction order.
	Paths [][][]int
}

// BuildHierarchical builds the k-hierarchical lower-bound graph of
// Definition 18 with parameters lengths = (ell_1, ..., ell_k): start from a
// path of length ell_k (the level-k path); then for i = k-1 down to 1, attach
// to every node of every level-(i+1) path a fresh path of length ell_i.
func BuildHierarchical(lengths []int) (*Hierarchical, error) {
	k := len(lengths)
	if k < 1 {
		return nil, fmt.Errorf("%w: hierarchical needs at least one level", ErrBadParam)
	}
	for i, l := range lengths {
		if l < 1 {
			return nil, fmt.Errorf("%w: ell_%d = %d", ErrBadParam, i+1, l)
		}
	}
	total := totalHierarchicalNodes(lengths)
	b := NewBuilder(total)
	h := &Hierarchical{
		K:       k,
		Lengths: append([]int(nil), lengths...),
		Paths:   make([][][]int, k),
	}
	// Level-k path.
	first := b.AddNodes(lengths[k-1])
	top := make([]int, lengths[k-1])
	for i := range top {
		top[i] = first + i
		if i > 0 {
			if err := b.AddEdge(top[i-1], top[i]); err != nil {
				return nil, err
			}
		}
	}
	h.Paths[k-1] = [][]int{top}
	// Levels k-1 .. 1.
	for i := k - 1; i >= 1; i-- {
		for _, parent := range h.Paths[i] { // level-(i+1) paths live at index i
			for _, v := range parent {
				path, err := b.AttachPath(v, lengths[i-1])
				if err != nil {
					return nil, err
				}
				h.Paths[i-1] = append(h.Paths[i-1], path)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		return nil, err
	}
	h.Tree = tree
	h.ConsLevel = make([]uint8, tree.N())
	for i := 0; i < k; i++ {
		for _, p := range h.Paths[i] {
			for _, v := range p {
				h.ConsLevel[v] = uint8(i + 1)
			}
		}
	}
	return h, nil
}

// BuildWeightedHierarchical builds the weighted lower-bound construction of
// Definition 25 (Figure 4) around the hierarchical core h, the tree shared by
// the weighted instances of Theorems 2-5 and the weight-augmented instances
// of Lemmas 68-69. The core keeps its node indices and edges; then, for every
// construction level i = 2..k, perLevel weight nodes are split evenly (at
// least one each) among the level-i nodes as balanced trees of maximum
// degree delta, one per node, each root attached to its host. Every node
// from h.Tree.N() on is a weight node, and a weight tree's root is the
// weight node whose port 0 is its host.
func BuildWeightedHierarchical(h *Hierarchical, delta, perLevel int) (*Tree, error) {
	if delta < 2 {
		return nil, fmt.Errorf("%w: weight tree degree %d < 2", ErrBadParam, delta)
	}
	nCore := h.Tree.N()
	b := NewBuilder(nCore + (h.K-1)*perLevel)
	b.AddNodes(nCore)
	// The core's edges in Edges() order, read off its CSR.
	for u := 0; u < nCore; u++ {
		for _, w := range h.Tree.NeighborsRaw(u) {
			if u < int(w) {
				if err := b.AddEdge(u, int(w)); err != nil {
					return nil, err
				}
			}
		}
	}
	for level := 2; level <= h.K; level++ {
		hosts := 0
		for _, path := range h.Paths[level-1] {
			hosts += len(path)
		}
		if hosts == 0 {
			continue
		}
		per := max(1, perLevel/hosts)
		for _, path := range h.Paths[level-1] {
			for _, host := range path {
				root := b.AddNodes(per)
				// The host edge comes before the fill, so it is the root's
				// port 0.
				if err := b.AddEdge(host, root); err != nil {
					return nil, err
				}
				if err := fillBalanced(b, root, per, delta); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

func totalHierarchicalNodes(lengths []int) int {
	k := len(lengths)
	// Number of level-i nodes is prod_{j=i..k} ell_j.
	total := 0
	prod := 1
	for i := k - 1; i >= 0; i-- {
		prod *= lengths[i]
		total += prod
	}
	return total
}

// HierarchicalSize returns the total node count of the lower-bound graph for
// the given length parameters without building it.
func HierarchicalSize(lengths []int) int { return totalHierarchicalNodes(lengths) }
