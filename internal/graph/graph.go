// Package graph provides the tree substrate used throughout the library.
//
// A Tree is an immutable bounded-degree tree stored in a flat CSR
// (compressed sparse row) layout: one contiguous neighbor array plus an
// offset array, so walking all adjacencies is a linear sweep over one
// allocation instead of a pointer chase through per-node slices.
// Immutability is what lets one built instance be shared freely across
// goroutines, cache entries (package inst), and simulation shards; the CSR
// layout is additionally what makes a node range a *slot* range — the
// directed-edge slots of nodes [lo, hi) occupy the contiguous interval
// [Offsets()[lo], Offsets()[hi]) — which is the property the simulator's
// struct-of-arrays state and shard snapshots are built on. Trees are
// constructed incrementally with a Builder or through the Build* entry
// points covering the paper's instance families and the generic test
// shapes:
//
//   - BuildPath, BuildStar, BuildCaterpillar, BuildBalanced — simple
//     parametric shapes (paths and the balanced Δ-regular weight trees of
//     Lemma 23, plus star/caterpillar test workloads);
//   - BuildHierarchical — the k-hierarchical lower-bound graphs of
//     Definition 18, returned with their construction metadata
//     (per-level paths, construction levels);
//   - BuildGaltonWatson, BuildLadder (random.go) — seeded random tree
//     families for ensemble experiments;
//   - ComputeLevels (levels.go) — the peeling level computation of
//     Definition 8, which solvers and verifiers use instead of the
//     construction levels;
//   - InducedComponents (subgraph.go) — connected components of the
//     subgraph a mask induces and of the one its complement induces,
//     re-indexed as standalone Trees;
//   - InducedPaths (subgraph.go) — the components of an induced subgraph
//     whose components are paths, each listed along its path (compress
//     runs and phase segments).
//
// Nodes are identified by dense indices 0..N-1. Indices are a property of the
// *construction*, not of the LOCAL model; distributed identifiers are assigned
// separately by the simulator (package sim).
package graph

import (
	"errors"
	"fmt"
)

// Common errors returned by graph construction and validation.
var (
	ErrNotATree      = errors.New("graph is not a tree")
	ErrNotConnected  = errors.New("graph is not connected")
	ErrSelfLoop      = errors.New("self loops are not allowed")
	ErrDuplicateEdge = errors.New("duplicate edge")
	ErrNodeRange     = errors.New("node index out of range")
	ErrEmpty         = errors.New("graph has no nodes")
)

// Tree is an immutable bounded-degree tree in flat CSR form: the neighbors
// of node v are nbr[off[v]:off[v+1]], and port p of v is the directed-edge
// slot off[v]+p in any array indexed by flat slot. The zero value is not
// usable; construct trees with a Builder or one of the Build* helpers.
type Tree struct {
	off    []int32 // CSR offsets, len N()+1; off[0] = 0, off[N()] = 2*m
	nbr    []int32 // flat neighbor array, len 2*m
	m      int     // number of edges
	maxDeg int     // cached max degree (computed once at construction)
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.off) - 1 }

// Degree returns the degree of node v.
func (t *Tree) Degree(v int) int { return int(t.off[v+1] - t.off[v]) }

// MaxDegree returns the maximum degree over all nodes (0 for a single
// node). It is cached at construction time — callers in driver hot paths
// may call it freely.
func (t *Tree) MaxDegree() int { return t.maxDeg }

// Offsets returns the CSR offset array (length N()+1): the neighbors of v
// occupy positions Offsets()[v]..Offsets()[v+1] of AdjacencyRaw, and the
// directed-edge slots of a contiguous node range [lo, hi) are the
// contiguous slot interval [Offsets()[lo], Offsets()[hi]) — the property
// the simulator's flat per-port state relies on. Callers must not modify
// the returned slice.
func (t *Tree) Offsets() []int32 { return t.off }

// AdjacencyRaw returns the flat CSR neighbor array (length 2*M()). Entry
// Offsets()[v]+p is the p-th neighbor (port p) of v. Callers must not
// modify the returned slice.
func (t *Tree) AdjacencyRaw() []int32 { return t.nbr }

// Neighbors returns a copy of the neighbor list of v.
func (t *Tree) Neighbors(v int) []int {
	raw := t.nbr[t.off[v]:t.off[v+1]]
	out := make([]int, len(raw))
	for i, u := range raw {
		out[i] = int(u)
	}
	return out
}

// NeighborsRaw returns the neighbor slice of v — a subslice of the shared
// CSR neighbor array. Callers must not modify the returned slice; it is
// exposed for hot paths inside this module.
func (t *Tree) NeighborsRaw(v int) []int32 { return t.nbr[t.off[v]:t.off[v+1]] }

// HasEdge reports whether {u,v} is an edge.
func (t *Tree) HasEdge(u, v int) bool {
	for _, w := range t.NeighborsRaw(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Edges returns all edges as pairs (u,v) with u < v.
func (t *Tree) Edges() [][2]int {
	out := make([][2]int, 0, t.m)
	for u := 0; u < t.N(); u++ {
		for _, w := range t.NeighborsRaw(u) {
			if u < int(w) {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// BFS computes hop distances from src. Unreachable nodes get -1 (cannot
// happen on a valid tree).
func (t *Tree) BFS(src int) []int {
	dist := make([]int, t.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, t.N())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.NeighborsRaw(int(v)) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// RootAt roots t at r: parent[v] is v's neighbor toward r (-1 at r) and
// order lists the nodes in BFS order from r, so every node comes after its
// parent and each node's children follow one another in port order.
func (t *Tree) RootAt(r int) (parent, order []int32) {
	n := t.N()
	parent = make([]int32, n)
	order = make([]int32, 0, n)
	parent[r] = -1
	order = append(order, int32(r))
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, w := range t.NeighborsRaw(int(v)) {
			if w == parent[v] {
				continue
			}
			parent[w] = v
			order = append(order, w)
		}
	}
	return parent, order
}

// Validate checks the structural tree invariants: connected, acyclic
// (m == n-1 together with connectivity), no self loops, no duplicate edges.
func (t *Tree) Validate() error {
	n := max(t.N(), 0)
	return t.validateOn(make([]int32, n), make([]int32, n))
}

// validateOn is Validate on caller-owned scratch: mark and queue must have
// room for N() entries; validateOn clears what it uses of mark.
func (t *Tree) validateOn(mark, queue []int32) error {
	n := t.N()
	if n == 0 {
		return ErrEmpty
	}
	if t.m != n-1 {
		return fmt.Errorf("%w: %d nodes but %d edges", ErrNotATree, n, t.m)
	}
	// mark[v] is 1 once the BFS from node 0 reaches v; the duplicate scan
	// then stamps every neighbor of v with v+2, so one array serves both
	// passes.
	mark = mark[:n]
	clear(mark)
	queue = append(queue[:0], 0)
	mark[0] = 1
	for i := 0; i < len(queue); i++ {
		for _, w := range t.NeighborsRaw(int(queue[i])) {
			if mark[w] == 0 {
				mark[w] = 1
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return fmt.Errorf("%w: BFS reached %d of %d nodes", ErrNotConnected, len(queue), n)
	}
	for v := 0; v < n; v++ {
		stamp := int32(v) + 2
		for _, w := range t.NeighborsRaw(v) {
			if int(w) == v {
				return fmt.Errorf("%w at node %d", ErrSelfLoop, v)
			}
			if mark[w] == stamp {
				return fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, v, w)
			}
			mark[w] = stamp
		}
	}
	return nil
}

// Builder incrementally constructs a Tree. It records nodes as a count and
// edges as one insertion-ordered list; Build counting-sorts that list into
// the immutable CSR layout, so port p of v is the p-th edge added at v. A
// Builder is spent after Build, which reuses the edge list as scratch: it
// must not be added to or built again.
type Builder struct {
	n     int
	edges []int32 // edge i is {edges[2i], edges[2i+1]}, in insertion order
}

// NewBuilder returns a Builder with capacity hints for n nodes: room for
// the n-1 edges of a tree and for Build's validation scratch, 2n entries.
func NewBuilder(n int) *Builder {
	return &Builder{edges: make([]int32, 0, 2*max(n, 0))}
}

// AddNode appends a new isolated node and returns its index.
func (b *Builder) AddNode() int {
	b.n++
	return b.n - 1
}

// AddNodes appends k new isolated nodes and returns the index of the first.
func (b *Builder) AddNodes(k int) int {
	first := b.n
	b.n += max(k, 0)
	return first
}

// AddEdge connects u and v. It does not check for cycles; Build does.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("%w: edge {%d,%d} with %d nodes", ErrNodeRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	b.edges = append(b.edges, int32(u), int32(v))
	return nil
}

// AttachPath appends a fresh path of length pathLen (pathLen new nodes) and
// connects its first node to the existing node at. It returns the indices of
// the new path nodes in order (the node adjacent to `at` first).
func (b *Builder) AttachPath(at, pathLen int) ([]int, error) {
	if pathLen <= 0 {
		return nil, nil
	}
	first := b.AddNodes(pathLen)
	nodes := make([]int, pathLen)
	for i := 0; i < pathLen; i++ {
		nodes[i] = first + i
	}
	if err := b.AddEdge(at, nodes[0]); err != nil {
		return nil, err
	}
	for i := 1; i < pathLen; i++ {
		if err := b.AddEdge(nodes[i-1], nodes[i]); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// Build finalizes the tree: counting-sorts the edge list into CSR form and
// validates the structural invariants. The edge list is dead once the CSR
// is written, so validation runs on it when it has room for Validate's two
// n-entry arrays; only a Builder that outgrew its capacity hint allocates
// them. The Builder is spent afterwards.
func (b *Builder) Build() (*Tree, error) {
	n := b.n
	off := make([]int32, n+1)
	for _, v := range b.edges {
		off[v]++
	}
	// Inclusive prefix sums leave off[v] at the end of v's row; the
	// backwards fill below walks each row from its end, so after it off[v]
	// is the row's start and each row holds its edges in insertion order.
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, int(off[v]))
		if v > 0 {
			off[v] += off[v-1]
		}
	}
	off[n] = int32(len(b.edges))
	nbr := make([]int32, len(b.edges))
	for i := len(b.edges) - 2; i >= 0; i -= 2 {
		u, v := b.edges[i], b.edges[i+1]
		off[u]--
		nbr[off[u]] = v
		off[v]--
		nbr[off[v]] = u
	}
	t := &Tree{off: off, nbr: nbr, m: len(b.edges) / 2, maxDeg: maxDeg}
	scratch := b.edges[:cap(b.edges)]
	b.edges = nil
	var err error
	if len(scratch) >= 2*n {
		err = t.validateOn(scratch[:n], scratch[n:])
	} else {
		err = t.Validate()
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build for construction code with statically valid inputs;
// it panics on error (program-construction failure, per style guide).
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuild: %v", err))
	}
	return t
}
