package dfree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// oracleGreedyCopySet is Algorithm 𝒜's greedy as first written: the
// radius-(r+1) ball lives in a map from node to a heap-allocated record
// holding its depth, parent, children and truncated subtree size, and each
// Copy node's children are sorted by sort.Slice.
func oracleGreedyCopySet(t *graph.Tree, root, r, d int) []int {
	type nodeInfo struct {
		depth    int
		parent   int
		children []int
		size     int
	}
	info := map[int]*nodeInfo{root: {depth: 0, parent: -1}}
	order := []int{root}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		iv := info[v]
		if iv.depth == r+1 {
			continue
		}
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if u == iv.parent {
				continue
			}
			if _, ok := info[u]; ok {
				continue
			}
			info[u] = &nodeInfo{depth: iv.depth + 1, parent: v}
			iv.children = append(iv.children, u)
			order = append(order, u)
			queue = append(queue, u)
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		iv := info[v]
		iv.size = 1
		for _, c := range iv.children {
			iv.size += info[c].size
		}
	}
	copySet := []int{root}
	frontier := []int{root}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		iv := info[v]
		if iv.depth >= r {
			continue
		}
		kids := append([]int(nil), iv.children...)
		sort.Slice(kids, func(a, b int) bool { return info[kids[a]].size > info[kids[b]].size })
		declines := d
		if declines > len(kids) {
			declines = len(kids)
		}
		for _, c := range kids[declines:] {
			copySet = append(copySet, c)
			frontier = append(frontier, c)
		}
	}
	return copySet
}

// TestGreedyCopySetMatchesOracle runs Greedy.Grow on radius-(r+1) balls
// (Algorithm 𝒜's call) and the map oracle from every root of random trees
// for r in 0..4 and d in 1..3; the copy sets must be identical, element for
// element. The GW trees with up to
// 20 children per node give some nodes more than 12 children, where the
// sort leaves insertion sort for pattern-defeating quicksort.
func TestGreedyCopySetMatchesOracle(t *testing.T) {
	type sample struct {
		name string
		tree *graph.Tree
	}
	var trees []sample
	for _, c := range []int{3, 5, 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			tr, err := graph.BuildGaltonWatson(150, c, seed)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, sample{fmt.Sprintf("gw150c%ds%d", c, seed), tr})
		}
	}
	for seed := uint64(1); seed <= 2; seed++ {
		tr, err := graph.BuildLadder(120, seed)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, sample{fmt.Sprintf("ladder120s%d", seed), tr})
	}
	bal, err := graph.BuildBalanced(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, sample{"balanced5x200", bal})
	var g Greedy
	for _, tc := range trees {
		for root := 0; root < tc.tree.N(); root++ {
			for r := 0; r <= 4; r++ {
				for d := 1; d <= 3; d++ {
					got := g.Grow(tc.tree, root, d, r+1, nil).Nodes
					want := oracleGreedyCopySet(tc.tree, root, r, d)
					if !slices.Equal(got, want) {
						t.Fatalf("%s root %d r=%d d=%d: copy set %v, oracle %v", tc.name, root, r, d, got, want)
					}
				}
			}
		}
	}
}

// oracleShortPathConnect is ShortPathConnect before its third pass was
// folded into the top-down pass: it roots the tree with its own BFS
// (oracleBFSOrder), keeps a node's two nearest A-node directions in a
// per-node slice updated through a closure, and afterwards collects and
// sorts every node's direction distances once more.
func oracleShortPathConnect(t *graph.Tree, isA []bool, limit int) []bool {
	n := t.N()
	out := make([]bool, n)
	const inf = math.MaxInt32
	parent := make([]int, n)
	order := oracleBFSOrder(t, 0, parent)
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
		type cand struct{ dist, via int }
		best := []cand{{inf, -1}, {inf, -1}}
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

func oracleBFSOrder(t *graph.Tree, root int, parent []int) []int {
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

// TestShortPathConnectMatchesOracle compares ShortPathConnect with the
// three-pass oracle on Galton-Watson, ladder and path trees of 1–300 nodes,
// A-node densities 0–0.3 and every limit in 0..12.
func TestShortPathConnectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cases := 0
	for _, n := range []int{1, 2, 3, 5, 8, 13, 30, 64, 150, 300} {
		type sample struct {
			name string
			tree *graph.Tree
		}
		var shapes []sample
		for _, c := range []int{2, 3, 6} {
			tr, err := graph.BuildGaltonWatson(n, c, uint64(n*c))
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, sample{fmt.Sprintf("gw%dc%d", n, c), tr})
		}
		lad, err := graph.BuildLadder(n, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		path, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, sample{fmt.Sprintf("ladder%d", n), lad}, sample{fmt.Sprintf("path%d", n), path})
		for _, sh := range shapes {
			name, tr := sh.name, sh.tree
			for _, density := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3} {
				isA := make([]bool, n)
				for v := range isA {
					isA[v] = rng.Float64() < density
				}
				for limit := 0; limit <= 12; limit++ {
					got := ShortPathConnect(tr, isA, limit)
					want := oracleShortPathConnect(tr, isA, limit)
					if !slices.Equal(got, want) {
						t.Fatalf("%s density %.2f limit %d: got %v, oracle %v", name, density, limit, got, want)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases identical", cases)
}
