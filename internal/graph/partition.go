package graph

// Topology-aware shard partitioning: relabel the tree so every subtree
// occupies a contiguous index interval, then place the shard cut points
// where few edges cross. The sharded simulator (internal/sim) always owns
// contiguous node ranges — that is what makes a shard's message state two
// flat slice windows — so the only lever a partitioner has is the node
// numbering itself. A fat preorder (DFS order; SNIPPETS.md 1/3 style)
// provides exactly the property needed: the subtree of any node is one
// contiguous interval, so a cut between two indices severs only the edges
// whose parent-child interval spans it, instead of the accidental crossings
// of the construction numbering.
//
// Partition tries a small deterministic candidate set — preorders with
// light-child-first and heavy-child-first child ordering, the identity
// numbering with window-optimized cuts, and the plain balanced range split —
// and keeps the layout with the fewest boundary edges. Because the range
// split itself is a candidate, the returned layout never has more boundary
// edges than the range layout: the per-shard BoundaryEdges statistic the
// sharded backend reports is provably no worse, and on shapes whose
// construction order scatters subtrees (caterpillars, hierarchical
// lower-bound graphs) it is dramatically better.
//
// Everything here is a pure function of (tree, k): no randomness, fixed tie
// breaks (smallest cut, candidate-list order), so a layout is reproducible
// from the instance alone — the same discipline as the seeded generators.

import (
	"cmp"
	"slices"
)

// Layout is a shard partition of a tree expressed as a node relabeling plus
// cut points over the relabeled index space.
type Layout struct {
	// Perm maps construction index to relabeled index: node v occupies
	// position Perm[v] of the permuted order. A nil Perm is the identity.
	Perm []int32
	// Cuts are the k+1 shard boundaries over relabeled positions: shard i
	// owns positions [Cuts[i], Cuts[i+1]), Cuts[0] = 0, Cuts[k] = n. Cuts are
	// strictly increasing, so every shard is non-empty.
	Cuts []int32
	// BoundaryEdges is the number of tree edges whose endpoints land in
	// different shards, each counted once (a shard-local view counts every
	// such edge in both incident shards).
	BoundaryEdges int
}

// Inverse returns the inverse permutation (position -> construction index),
// or nil if the layout's Perm is the identity.
func (l *Layout) Inverse() []int32 {
	if l.Perm == nil {
		return nil
	}
	inv := make([]int32, len(l.Perm))
	for v, p := range l.Perm {
		inv[p] = int32(v)
	}
	return inv
}

// Owners expands the cut points into a per-position shard index: owner[p] is
// the shard owning relabeled position p.
func (l *Layout) Owners() []int32 {
	n := int(l.Cuts[len(l.Cuts)-1])
	owner := make([]int32, n)
	for i := 0; i+1 < len(l.Cuts); i++ {
		for p := l.Cuts[i]; p < l.Cuts[i+1]; p++ {
			owner[p] = int32(i)
		}
	}
	return owner
}

// RangeCuts returns the balanced contiguous split of n nodes into
// exactly min(max(k,1), n) shards: the first n%k shards get ceil(n/k) nodes
// and the rest floor(n/k), so every shard is non-empty — asking for more
// shards than nodes clamps to one node per shard rather than silently
// producing fewer (or empty) shards. This is the sharded backend's "range" layout (and the nominal
// cut positions the subtree layout optimizes around).
func RangeCuts(n, k int) []int32 {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	chunk, rem := n/k, n%k
	cuts := make([]int32, k+1)
	pos := 0
	for i := 1; i <= k; i++ {
		size := chunk
		if i <= rem {
			size++
		}
		pos += size
		cuts[i] = int32(pos)
	}
	return cuts
}

// Partition computes a topology-aware shard layout of t into min(k, n)
// shards (k < 1 is treated as 1): a node permutation under which every
// subtree is a contiguous interval, plus cut points chosen to minimize
// boundary edges within a balance window of ±ceil(n/k)/4 around the balanced
// range split. The returned layout never has more boundary edges than
// RangeCuts with the identity permutation.
func Partition(t *Tree, k int) *Layout {
	n := t.N()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	parent, order := t.RootAt(0)
	size := subtreeSizes(t, parent, order)

	best := &Layout{Perm: nil, Cuts: RangeCuts(n, k)}
	best.BoundaryEdges = countBoundary(t, nil, best.Cuts)
	for _, heavyFirst := range []bool{false, true} {
		perm := preorderPerm(t, parent, size, heavyFirst)
		consider(t, best, perm, k)
	}
	// The identity numbering with window-optimized cuts: on shapes whose
	// construction order is already subtree-contiguous (paths, BFS layouts)
	// this keeps the numbering stable while still sliding the cuts off
	// expensive positions.
	consider(t, best, nil, k)
	return best
}

// consider evaluates one candidate permutation with window-optimized cuts
// and replaces best if it strictly reduces the boundary-edge count.
func consider(t *Tree, best *Layout, perm []int32, k int) {
	cuts := chooseCuts(t, perm, k)
	b := countBoundary(t, perm, cuts)
	if b < best.BoundaryEdges {
		best.Perm = perm
		best.Cuts = cuts
		best.BoundaryEdges = b
	}
}

// subtreeSizes computes the rooted subtree size of every node from a
// top-down visit order (children accumulate into parents bottom-up).
func subtreeSizes(t *Tree, parent, order []int32) []int32 {
	size := make([]int32, t.N())
	for i := range size {
		size[i] = 1
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		size[parent[v]] += size[v]
	}
	return size
}

// preorderPerm computes the fat-preorder permutation of t rooted at 0:
// perm[v] is v's DFS preorder position with children visited in subtree-size
// order — heaviest first when heavyFirst, lightest first otherwise — with
// port order as the deterministic tie break. Either way every rooted subtree
// occupies one contiguous interval of positions; the child order only decides
// *which* sibling blocks become adjacent, which is what the cut placement
// exploits (light-first keeps each heavy spine node adjacent to its small
// subtrees, so balanced cuts fall between self-contained blocks).
func preorderPerm(t *Tree, parent, size []int32, heavyFirst bool) []int32 {
	n := t.N()
	perm := make([]int32, n)
	kids := make([]int32, 0, t.MaxDegree())
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	next := int32(0)
	order := func(a, b int32) int { return cmp.Compare(size[a], size[b]) }
	if heavyFirst {
		order = func(a, b int32) int { return cmp.Compare(size[b], size[a]) }
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		perm[v] = next
		next++
		kids = kids[:0]
		for _, w := range t.NeighborsRaw(int(v)) {
			if w != parent[v] {
				kids = append(kids, w)
			}
		}
		slices.SortStableFunc(kids, order)
		// Push in reverse so the first child in the chosen order pops first.
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return perm
}

// chooseCuts places k-1 cut points over the permuted positions: each cut i
// searches the window of ±ceil(n/k)/4 positions around its balanced nominal
// position for the cheapest cut — the position c minimizing the number of
// edges whose permuted endpoint interval spans c — clamped so cuts stay
// strictly increasing and every shard keeps at least one node. Smallest
// position wins ties, so the result is deterministic.
func chooseCuts(t *Tree, perm []int32, k int) []int32 {
	n := t.N()
	if k <= 1 {
		return []int32{0, int32(n)}
	}
	// cross[c] = number of edges {u,v} with min(pos) < c <= max(pos): the
	// edges severed by a cut between positions c-1 and c. Built as a
	// difference array over each edge's position interval, then prefix-summed.
	cross := make([]int32, n+1)
	off, nbrs := t.Offsets(), t.AdjacencyRaw()
	for u := 0; u < n; u++ {
		pu := pos(perm, u)
		for e := off[u]; e < off[u+1]; e++ {
			pv := pos(perm, int(nbrs[e]))
			if pu < pv { // count each edge once
				cross[pu+1]++
				cross[pv+1]--
			}
		}
	}
	for c := 1; c <= n; c++ {
		cross[c] += cross[c-1]
	}

	chunk, rem := n/k, n%k
	window := ((n + k - 1) / k) / 4
	cuts := make([]int32, k+1)
	cuts[k] = int32(n)
	nominal := 0
	for i := 1; i < k; i++ {
		size := chunk
		if i <= rem {
			size++
		}
		nominal += size
		lo, hi := nominal-window, nominal+window
		if min := int(cuts[i-1]) + 1; lo < min {
			lo = min
		}
		if max := n - (k - i); hi > max {
			hi = max
		}
		bestC, bestCross := lo, cross[lo]
		for c := lo + 1; c <= hi; c++ {
			if cross[c] < bestCross {
				bestC, bestCross = c, cross[c]
			}
		}
		cuts[i] = int32(bestC)
	}
	return cuts
}

// countBoundary counts the edges of t whose endpoints land in different
// shards under perm (nil = identity) and cuts, each edge counted once.
func countBoundary(t *Tree, perm []int32, cuts []int32) int {
	owner := (&Layout{Cuts: cuts}).Owners()
	n := t.N()
	off, nbrs := t.Offsets(), t.AdjacencyRaw()
	boundary := 0
	for u := 0; u < n; u++ {
		pu := pos(perm, u)
		for e := off[u]; e < off[u+1]; e++ {
			v := int(nbrs[e])
			if u < v && owner[pu] != owner[pos(perm, v)] {
				boundary++
			}
		}
	}
	return boundary
}

// pos returns the permuted position of v (identity when perm is nil).
func pos(perm []int32, v int) int32 {
	if perm == nil {
		return int32(v)
	}
	return perm[v]
}

// PermuteTree relabels t under perm: node v of t becomes node perm[v] of the
// result, with its neighbor list relabeled in place — port p of perm[v]
// leads to perm[t.Neighbor(v, p)], the same port order as the original. The
// permuted tree is therefore the same LOCAL-model network under new indices:
// a simulation over it, with IDs and inputs permuted the same way, observes
// identical per-port message sequences at every node.
func PermuteTree(t *Tree, perm []int32) *Tree {
	n := t.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[perm[v]+1] = t.off[v+1] - t.off[v]
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, len(t.nbr))
	for v := 0; v < n; v++ {
		row := nbr[off[perm[v]]:]
		for i, w := range t.NeighborsRaw(v) {
			row[i] = perm[w]
		}
	}
	return &Tree{off: off, nbr: nbr, m: t.m, maxDeg: t.maxDeg}
}
