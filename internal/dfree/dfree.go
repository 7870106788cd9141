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
package dfree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

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
	// CopySets maps each A-node that output Copy to its maximal connected
	// component of Copy nodes (the component contains exactly one A-node;
	// Observation 39).
	CopySets map[int][]int
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

// Solve runs Algorithm 𝒜 on tree t with the given inputs. The parameter d
// must satisfy 1 <= d < Δ. The computation is performed centrally but uses
// only radius-limited information per node, mirroring the ball-collection
// algorithm; every node is charged Rounds = 3⌈log_{d+1} n⌉+3.
func Solve(t *graph.Tree, inputs []Input, d int) (*Solution, error) {
	n := t.N()
	if len(inputs) != n {
		return nil, fmt.Errorf("dfree: %d inputs for %d nodes", len(inputs), n)
	}
	if d < 1 {
		return nil, fmt.Errorf("dfree: d = %d < 1", d)
	}
	r := Radius(n, d)
	sol := &Solution{
		Out:      make([]Out, n),
		Rounds:   3*r + 3,
		CopySets: make(map[int][]int),
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
	var ball ballScratch
	for v := 0; v < n; v++ {
		if inputs[v] != InputA || sol.Out[v] == OutConnect {
			continue
		}
		copySet := ball.greedyCopySet(t, v, r, d)
		for _, u := range copySet {
			if sol.Out[u] == OutConnect {
				// Cannot happen: Connect regions and remaining A-balls are
				// disjoint (any node on a short A–A path makes both A-nodes
				// Connect).
				return nil, fmt.Errorf("dfree: node %d both Connect and Copy", u)
			}
			sol.Out[u] = OutCopy
		}
		sol.CopySets[v] = copySet
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
	parent := make([]int, n)
	order := bfsOrder(t, 0, parent)
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
		if p := parent[v]; p >= 0 && down[v]+1 < down[p] {
			down[p] = down[v] + 1
		}
	}
	for _, v := range order {
		// Children of v get up = 1 + min(up[v], self-A, best sibling down).
		type cand struct{ dist, via int }
		best := []cand{{inf, -1}, {inf, -1}} // two smallest with distinct via
		push := func(dist, via int) {
			if dist < best[0].dist {
				best[1] = best[0]
				best[0] = cand{dist, via}
			} else if dist < best[1].dist && via != best[0].via {
				best[1] = cand{dist, via}
			}
		}
		if isA[v] {
			push(0, v)
		}
		if up[v] < inf {
			push(up[v], -2)
		}
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if parent[u] == v && down[u] < inf {
				push(down[u]+1, u)
			}
		}
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if parent[u] != v {
				continue
			}
			b := best[0]
			if b.via == u {
				b = best[1]
			}
			if b.dist < inf {
				up[u] = b.dist + 1
			}
		}
	}
	// Node v is on a short A–A path iff two distinct directions (a direction
	// is "self", "parent side", or a child subtree) both reach A-nodes with
	// total distance <= limit.
	for v := 0; v < n; v++ {
		var dists []int
		if isA[v] {
			dists = append(dists, 0)
		}
		if up[v] < inf {
			dists = append(dists, up[v])
		}
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if parent[u] == v && down[u] < inf {
				dists = append(dists, down[u]+1)
			}
		}
		if len(dists) < 2 {
			continue
		}
		sort.Ints(dists)
		if dists[0]+dists[1] <= limit {
			out[v] = true
		}
	}
	return out
}

func bfsOrder(t *graph.Tree, root int, parent []int) []int {
	n := t.N()
	for i := range parent {
		parent[i] = -1
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	seen[root] = true
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return order
}

// ballScratch holds greedyCopySet's radius-(r+1) ball in flat arrays
// indexed by BFS position. A node's children are contiguous in BFS order,
// so the children of position i are positions first[i]..first[i+1]-1. Solve
// reuses one scratch for every A-node.
type ballScratch struct {
	node   []int32 // node[i] is the tree node at BFS position i
	parent []int32 // parent[i] is the tree node of i's parent (-1 at the root)
	depth  []int32
	first  []int32
	size   []int32 // subtree size, truncated at the ball boundary
	copies []int32 // the BFS positions of the Copy set, in greedy order
	kids   []int32 // one Copy node's children, sorted heaviest first
}

// greedyCopySet runs 𝒜* (proof of Lemma 37) on the radius-(r+1) ball around
// root: root is Copy; every Copy node declines its min(budget, #children)
// heaviest children (whole subtrees), where budget is d for the root and d
// (of at most Δ−1 children) below; the remaining children copy. The returned
// set is the Copy component containing root, always within radius r.
func (s *ballScratch) greedyCopySet(t *graph.Tree, root, r, d int) []int {
	// Collect the ball of radius r+1 in BFS order with parent pointers.
	s.node = append(s.node[:0], int32(root))
	s.parent = append(s.parent[:0], -1)
	s.depth = append(s.depth[:0], 0)
	s.first = s.first[:0]
	for i := 0; i < len(s.node); i++ {
		s.first = append(s.first, int32(len(s.node)))
		if int(s.depth[i]) == r+1 {
			continue
		}
		v := s.node[i]
		for _, u := range t.NeighborsRaw(int(v)) {
			if u == s.parent[i] {
				continue
			}
			s.node = append(s.node, u)
			s.parent = append(s.parent, v)
			s.depth = append(s.depth, s.depth[i]+1)
		}
	}
	s.first = append(s.first, int32(len(s.node)))
	// Subtree sizes truncated at the ball boundary, children before parents.
	s.size = slices.Grow(s.size[:0], len(s.node))[:len(s.node)]
	for i := len(s.node) - 1; i >= 0; i-- {
		size := int32(1)
		for _, c := range s.size[s.first[i]:s.first[i+1]] {
			size += c
		}
		s.size[i] = size
	}
	// Greedy descent; copies doubles as the BFS queue of Copy nodes.
	s.copies = append(s.copies[:0], 0)
	for q := 0; q < len(s.copies); q++ {
		i := s.copies[q]
		if int(s.depth[i]) >= r {
			// Children would be at depth r+1 ∈ Û\U and must decline; the
			// subtree-size argument of Lemma 37 guarantees Copy never needs
			// to extend this deep, so simply stop.
			continue
		}
		s.kids = s.kids[:0]
		for c := s.first[i]; c < s.first[i+1]; c++ {
			s.kids = append(s.kids, c)
		}
		slices.SortFunc(s.kids, func(a, b int32) int { return cmp.Compare(s.size[b], s.size[a]) })
		declines := min(d, len(s.kids))
		s.copies = append(s.copies, s.kids[declines:]...)
	}
	copySet := make([]int, len(s.copies))
	for q, i := range s.copies {
		copySet[q] = int(s.node[i])
	}
	return copySet
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
