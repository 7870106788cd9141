// Package dfree implements the d-free weight problem of Section 7 and the
// O(log n)-round Algorithm 𝒜 that solves it.
//
// The d-free weight problem is an LCL on trees with input labels A
// ("adjacent" — in the weighted problems these are the weight nodes adjacent
// to an active node) and W ("weight"), and output labels Decline, Connect,
// Copy, subject to:
//
//  1. An A-node that outputs Connect has ≥ 1 neighbor outputting Connect; a
//     W-node that outputs Connect has ≥ 2 neighbors outputting Connect.
//  2. A node that outputs Copy has ≤ d neighbors that output Decline.
//  3. Every A-node outputs Connect or Copy.
//
// Algorithm 𝒜 (worst case O(log n)): every node collects its
// (3⌈log_{d+1} n⌉+3)-hop ball; nodes on a ≤ (2⌈log_{d+1} n⌉+2)-hop path
// between two A-nodes output Connect; around every remaining A-node v, the
// greedy assignment 𝒜* marks a sparse subtree of Copy nodes (each Copy node
// declines its min(d, ·) heaviest children), everything else declines.
// Lemma 40: the Copy set around v has size ≤ 6·|Û|^x with
// x = log(Δ−1−d)/log(Δ−1).
//
// The package owns the two steps that the Π^{3.5} algorithm of Section 8.2
// (weighted.SolveLogStar) shares with Algorithm 𝒜: ShortPathConnect, its
// Connect rule, and Greedy, the one implementation of 𝒜*, which Section 8.2
// runs on an A-node's domain instead of its ball to prune it for Lemma 52.
package dfree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Input is a node input label of the d-free weight problem.
type Input uint8

// Input labels.
const (
	InputW Input = iota // weight node
	InputA              // adjacent node (next to an active node)
)

// String names the input.
func (i Input) String() string {
	if i == InputA {
		return "A"
	}
	return "W"
}

// Out is an output label of the d-free weight problem.
type Out uint8

// Output labels.
const (
	OutNone Out = iota
	OutDecline
	OutConnect
	OutCopy
)

var outNames = [...]string{"none", "Decline", "Connect", "Copy"}

// String names the output.
func (o Out) String() string {
	if int(o) < len(outNames) {
		return outNames[o]
	}
	return fmt.Sprintf("Out(%d)", uint8(o))
}

// ErrInvalid is wrapped by verifier failures.
var ErrInvalid = errors.New("d-free weight output invalid")

// Solution is the outcome of Algorithm 𝒜 on one tree.
type Solution struct {
	Out []Out
	// Rounds is the uniform worst-case round count 3⌈log_{d+1} n⌉ + 3 every
	// node spends collecting its ball before deciding.
	Rounds int
	// CopySets holds, in ascending order of their A-node, the maximal
	// connected components of Copy nodes; each contains exactly one A-node,
	// its Nodes[0] (Observation 39).
	CopySets []CopySet
}

// Radius returns ⌈log_{d+1} n⌉, the ball radius parameter of Algorithm 𝒜
// (computed by integer arithmetic to avoid float rounding at exact powers).
func Radius(n, d int) int {
	if n <= 1 {
		return 1
	}
	base := d + 1
	r, pow := 0, 1
	for pow < n {
		// pow*base cannot overflow for the graph sizes int supports.
		pow *= base
		r++
	}
	return r
}

// Solve runs Algorithm 𝒜 on tree t with the given inputs, growing its Copy
// sets on greedy, which a caller solving many trees passes to every call.
// The parameter d must satisfy 1 <= d < Δ. The computation is performed
// centrally but uses only radius-limited information per node, mirroring
// the ball-collection algorithm; every node is charged Rounds =
// 3⌈log_{d+1} n⌉+3.
func Solve(t *graph.Tree, inputs []Input, d int, greedy *Greedy) (*Solution, error) {
	n := t.N()
	if len(inputs) != n {
		return nil, fmt.Errorf("dfree: %d inputs for %d nodes", len(inputs), n)
	}
	if d < 1 {
		return nil, fmt.Errorf("dfree: d = %d < 1", d)
	}
	r := Radius(n, d)
	sol := &Solution{
		Out:    make([]Out, n),
		Rounds: 3*r + 3,
	}

	// Step 1: Connect all nodes on a path of length <= 2r+2 between two
	// A-nodes.
	isA := make([]bool, n)
	for v := range isA {
		isA[v] = inputs[v] == InputA
	}
	for v, c := range ShortPathConnect(t, isA, 2*r+2) {
		if c {
			sol.Out[v] = OutConnect
		}
	}

	// Step 2: around each remaining A-node, run the greedy 𝒜* on its
	// radius-(r+1) ball.
	for v := 0; v < n; v++ {
		if inputs[v] != InputA || sol.Out[v] == OutConnect {
			continue
		}
		set := greedy.Grow(t, v, d, r+1, nil)
		for _, u := range set.Nodes {
			if sol.Out[u] == OutConnect {
				// Cannot happen: Connect regions and remaining A-balls are
				// disjoint (any node on a short A–A path makes both A-nodes
				// Connect).
				return nil, fmt.Errorf("dfree: node %d both Connect and Copy", u)
			}
			sol.Out[u] = OutCopy
		}
		sol.CopySets = append(sol.CopySets, set)
	}

	// Step 3: everything else declines.
	for v := 0; v < n; v++ {
		if sol.Out[v] == OutNone {
			sol.Out[v] = OutDecline
		}
	}
	return sol, nil
}

// ShortPathConnect reports, for every node, whether it lies on a path of
// length at most limit between two distinct A-marked nodes. In a tree, u
// lies on the a–b path iff dist(a,u) + dist(u,b) = dist(a,b), so it suffices
// to know, for every node, the nearest A-node in each neighbor direction
// (and itself). This is the Connect rule of Algorithm 𝒜 and of the Section
// 8.2 preprocessing (there with limit 5).
func ShortPathConnect(t *graph.Tree, isA []bool, limit int) []bool {
	n := t.N()
	out := make([]bool, n)
	const inf = math.MaxInt32
	// down[v] = min distance from v to an A-node within the subtree of v
	// (rooted at 0); up[v] = min distance via the parent direction.
	parent, order := t.RootAt(0)
	down := make([]int, n)
	up := make([]int, n)
	for v := range down {
		down[v] = inf
		up[v] = inf
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if isA[v] {
			down[v] = 0
		}
		if p := parent[v]; p >= 0 {
			down[p] = min(down[p], down[v]+1)
		}
	}
	for _, v := range order {
		// d0 <= d1 are the distances to the nearest A-nodes in two distinct
		// directions from v (a direction is "self", "parent side", or a
		// child subtree), and via0 is the direction of d0.
		d0, d1, via0 := up[v], inf, parent[v]
		if isA[v] {
			d0, d1, via0 = 0, d0, v
		}
		for _, u := range t.NeighborsRaw(int(v)) {
			if u == parent[v] {
				continue
			}
			if du := down[u] + 1; du < d0 {
				d0, d1, via0 = du, d0, u
			} else if du < d1 {
				d1 = du
			}
		}
		// v is on a short A–A path iff two directions reach A-nodes with
		// total distance <= limit.
		out[v] = d1 < inf && d0+d1 <= limit
		// A child's up distance is 1 + the nearest A-node in any other
		// direction.
		for _, u := range t.NeighborsRaw(int(v)) {
			if u == parent[v] {
				continue
			}
			if u == via0 {
				up[u] = min(d1+1, inf)
			} else {
				up[u] = min(d0+1, inf)
			}
		}
	}
	return out
}

// CopySet is a Copy component grown by the greedy: Nodes[0] is its A-node
// and Depth[i] is the tree distance from Nodes[0] to Nodes[i]. Nodes are
// listed in BFS order from the A-node.
type CopySet struct {
	Nodes []int
	Depth []int
}

// Greedy is 𝒜*, the Copy-set greedy of Lemma 37's proof, which the
// reassignment of Lemma 52 (Section 8.2) reuses. The zero value is ready
// to use. It keeps the region it last grew in flat arrays indexed by BFS
// position, so one Greedy serves many A-nodes. A node's children are
// contiguous in BFS order: the children of position i are positions
// first[i]..first[i+1]-1.
type Greedy struct {
	node   []int32 // node[i] is the tree node at BFS position i
	parent []int32 // parent[i] is the tree node of i's parent (-1 at the root)
	depth  []int32
	first  []int32
	size   []int32 // subtree size within the region
	copies []int32 // the BFS positions of the Copy set, in greedy order
	kids   []int32 // one Copy node's children, sorted heaviest first
}

// Grow runs the greedy from root and returns the Copy set it grows. The
// region is every node within distance limit (limit >= 1) of root that a
// path from root through nodes u with in(u) reaches; nil in admits every
// node. Root copies; every Copy node declines the min(budget, c) heaviest
// of its c children in the region, weighing a child by the size of its
// subtree within the region, and the other children copy, except that
// nodes at distance limit never copy. A declined child's whole subtree
// stays out of the set. Children are sorted by weight starting from port
// order, so equally heavy children decline in port order (for nodes with
// more than 12 children the sort is not stable, and this can differ).
//
// Algorithm 𝒜 grows an A-node's radius-(r+1) ball (limit r+1, budget d);
// Lemma 52 grows an A-node's domain (limit n, budget d−2).
func (g *Greedy) Grow(t *graph.Tree, root, budget, limit int, in func(v int) bool) CopySet {
	// Collect the region in BFS order with parent pointers.
	g.node = append(g.node[:0], int32(root))
	g.parent = append(g.parent[:0], -1)
	g.depth = append(g.depth[:0], 0)
	g.first = g.first[:0]
	for i := 0; i < len(g.node); i++ {
		g.first = append(g.first, int32(len(g.node)))
		if int(g.depth[i]) == limit {
			continue
		}
		v := g.node[i]
		for _, u := range t.NeighborsRaw(int(v)) {
			if u == g.parent[i] || (in != nil && !in(int(u))) {
				continue
			}
			g.node = append(g.node, u)
			g.parent = append(g.parent, v)
			g.depth = append(g.depth, g.depth[i]+1)
		}
	}
	g.first = append(g.first, int32(len(g.node)))
	// Subtree sizes within the region, children before parents.
	g.size = slices.Grow(g.size[:0], len(g.node))[:len(g.node)]
	for i := len(g.node) - 1; i >= 0; i-- {
		size := int32(1)
		for _, c := range g.size[g.first[i]:g.first[i+1]] {
			size += c
		}
		g.size[i] = size
	}
	// Greedy descent; copies doubles as the BFS queue of Copy nodes.
	g.copies = append(g.copies[:0], 0)
	for q := 0; q < len(g.copies); q++ {
		i := g.copies[q]
		if int(g.depth[i]) >= limit-1 {
			// Its children lie at distance limit and decline (in Algorithm
			// 𝒜 they are Û\U; the subtree-size argument of Lemma 37 shows
			// Copy never needs to reach them).
			continue
		}
		g.kids = g.kids[:0]
		for c := g.first[i]; c < g.first[i+1]; c++ {
			g.kids = append(g.kids, c)
		}
		slices.SortFunc(g.kids, func(a, b int32) int { return cmp.Compare(g.size[b], g.size[a]) })
		g.copies = append(g.copies, g.kids[min(budget, len(g.kids)):]...)
	}
	set := CopySet{Nodes: make([]int, len(g.copies)), Depth: make([]int, len(g.copies))}
	for q, i := range g.copies {
		set.Nodes[q] = int(g.node[i])
		set.Depth[q] = int(g.depth[i])
	}
	return set
}

// Verify checks properties (1)-(3) of the d-free weight problem.
func Verify(t *graph.Tree, inputs []Input, d int, out []Out) error {
	n := t.N()
	if len(inputs) != n || len(out) != n {
		return fmt.Errorf("dfree: length mismatch (n=%d)", n)
	}
	for v := 0; v < n; v++ {
		switch out[v] {
		case OutDecline, OutConnect, OutCopy:
		default:
			return fmt.Errorf("%w: node %d has output %v", ErrInvalid, v, out[v])
		}
		if inputs[v] == InputA && out[v] == OutDecline {
			return fmt.Errorf("%w: A-node %d declines (property 3)", ErrInvalid, v)
		}
		if out[v] == OutConnect {
			connects := 0
			for _, w := range t.NeighborsRaw(v) {
				if out[w] == OutConnect {
					connects++
				}
			}
			need := 2
			if inputs[v] == InputA {
				need = 1
			}
			if connects < need {
				return fmt.Errorf("%w: node %d (input %v) Connect with %d Connect neighbors, need %d (property 1)",
					ErrInvalid, v, inputs[v], connects, need)
			}
		}
		if out[v] == OutCopy {
			declines := 0
			for _, w := range t.NeighborsRaw(v) {
				if out[w] == OutDecline {
					declines++
				}
			}
			if declines > d {
				return fmt.Errorf("%w: Copy node %d has %d Decline neighbors > d=%d (property 2)",
					ErrInvalid, v, declines, d)
			}
		}
	}
	return nil
}
