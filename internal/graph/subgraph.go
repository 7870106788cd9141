package graph

// Component is a connected induced subgraph, re-indexed as its own Tree.
type Component struct {
	// Tree is the component with nodes re-indexed 0..len(Nodes)-1.
	Tree *Tree
	// Nodes maps component indices back to indices of the parent graph.
	Nodes []int
	// id is this component's position in its InducedComponents call, the
	// in side's components first; owner[v] == id marks the parent-graph
	// nodes in this component and local[v] is then v's component index.
	// Every Component of one call, on either side, shares the same owner
	// and local arrays (sized to the parent graph).
	id    int32
	owner []int32
	local []int32
}

// IndexOf returns the component index of a parent-graph node, or -1 if the
// node is not part of the component.
func (c *Component) IndexOf(parent int) int {
	if parent < 0 || parent >= len(c.owner) || c.owner[parent] != c.id {
		return -1
	}
	return int(c.local[parent])
}

// Mask returns the node mask of t that keep selects, in the form
// InducedComponents takes.
func Mask(t *Tree, keep func(v int) bool) []bool {
	mask := make([]bool, t.N())
	for v := range mask {
		mask[v] = keep(v)
	}
	return mask
}

// InducedPaths returns the connected components of the subgraph of t
// induced by the nodes with keep(v), each ordered along its path, in order
// of their lowest-indexed node. Every kept node must have at most two kept
// neighbors, so that each component is a path. A path starts at the end
// reached by walking from its lowest-indexed node, always leaving through
// the first port that leads to a kept node other than the one just left;
// the walk back from that end lists the path.
func InducedPaths(t *Tree, keep func(v int) bool) [][]int {
	seen := make([]bool, t.N()) // on a path already
	kept := 0
	for v := range seen {
		if keep(v) {
			kept++
		}
	}
	// Every path is a slice of one backing array that holds each kept node
	// once, in path order.
	all := make([]int, 0, kept)
	var paths [][]int
	// step returns the first kept neighbor of cur other than prev, skipping
	// seen nodes if skipSeen, or -1 if there is none.
	step := func(prev, cur int, skipSeen bool) int {
		for _, w := range t.NeighborsRaw(cur) {
			if u := int(w); u != prev && keep(u) && !(skipSeen && seen[u]) {
				return u
			}
		}
		return -1
	}
	for v := range seen {
		if seen[v] || !keep(v) {
			continue
		}
		prev, end := -1, v
		for next := step(prev, end, false); next != -1; next = step(prev, end, false) {
			prev, end = end, next
		}
		start := len(all)
		all = append(all, end)
		seen[end] = true
		prev, cur := -1, end
		for next := step(prev, cur, true); next != -1; next = step(prev, cur, true) {
			seen[next] = true
			all = append(all, next)
			prev, cur = cur, next
		}
		paths = append(paths, all[start:len(all):len(all)])
	}
	return paths
}

// InducedComponents returns the connected components of the subgraph of t
// induced by the nodes with mask[v] == true (in) and those of the subgraph
// induced by the other nodes (out), each side in order of its components'
// lowest-indexed nodes. Each component's nodes are indexed in BFS order
// from that node, and its port order is fixed: a node's BFS parent is port
// 0 (the root has none), followed by its other same-side neighbors in the
// parent graph's port order. Solvers that run on a component see this
// order, so it is part of the contract. Both sides are labeled on one
// parent-sized owner/local pair, so a component's IndexOf is -1 on every
// node of the other side.
func InducedComponents(t *Tree, mask []bool) (in, out []*Component) {
	n := t.N()
	owner := make([]int32, n)
	local := make([]int32, n)
	for v := range owner {
		owner[v] = -1
	}
	// Label the components, the in side's first: order holds every
	// component's nodes in BFS order, back to back, and starts[c] is where
	// component c begins.
	order := make([]int, 0, n)
	var starts []int
	label := func(side bool) {
		for s := 0; s < n; s++ {
			if mask[s] != side || owner[s] >= 0 {
				continue
			}
			id := int32(len(starts))
			starts = append(starts, len(order))
			owner[s], local[s] = id, 0
			order = append(order, s)
			for head := len(order) - 1; head < len(order); head++ {
				for _, w := range t.NeighborsRaw(order[head]) {
					if mask[w] == side && owner[w] < 0 {
						owner[w], local[w] = id, int32(len(order)-starts[id])
						order = append(order, int(w))
					}
				}
			}
		}
	}
	label(true)
	kIn := len(starts)
	label(false)
	// Write each component's CSR into slices of two shared arrays: component
	// c with nodes order[a:b] owns offsets offAll[a+c : b+c+1] and, having
	// b-a-1 edges, neighbors nbrAll[2(a-c) : 2(b-c-1)].
	k := len(starts)
	offAll := make([]int32, n+k)
	nbrAll := make([]int32, 2*(n-k))
	comps := make([]*Component, k)
	end := func(c int) int {
		if c+1 < k {
			return starts[c+1]
		}
		return n
	}
	// Every component is validated on one mark/queue pair sized to the
	// largest component.
	largest := 0
	for c := range comps {
		largest = max(largest, end(c)-starts[c])
	}
	mark, queue := make([]int32, largest), make([]int32, largest)
	for c := range comps {
		a, b := starts[c], end(c)
		off := offAll[a+c : b+c+1 : b+c+1]
		nbr := nbrAll[2*(a-c) : 2*(b-c-1) : 2*(b-c-1)]
		maxDeg := 0
		for i, v := range order[a:b] {
			// Slot off[i] is the BFS parent's: the parent is the only
			// neighbor in the component with a smaller component index.
			next := off[i]
			if i > 0 {
				next++
			}
			for _, w := range t.NeighborsRaw(v) {
				if owner[w] != int32(c) {
					continue
				}
				if j := local[w]; j < int32(i) {
					nbr[off[i]] = j
				} else {
					nbr[next] = j
					next++
				}
			}
			off[i+1] = next
			maxDeg = max(maxDeg, int(next-off[i]))
		}
		tree := &Tree{off: off, nbr: nbr, m: b - a - 1, maxDeg: maxDeg}
		if err := tree.validateOn(mark, queue); err != nil {
			// Unreachable: an induced connected subgraph of a tree is a tree.
			panic(err)
		}
		comps[c] = &Component{Tree: tree, Nodes: order[a:b:b], id: int32(c), owner: owner, local: local}
	}
	return comps[:kIn:kIn], comps[kIn:]
}
