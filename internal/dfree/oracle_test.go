package dfree

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// oracleGreedyCopySet is greedyCopySet as first written: the radius-(r+1)
// ball lives in a map from node to a heap-allocated record holding its
// depth, parent, children and truncated subtree size, and each Copy node's
// children are sorted by sort.Slice.
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

// TestGreedyCopySetMatchesOracle runs the flat-array greedy and the map
// oracle from every root of random trees for r in 0..4 and d in 1..3; the
// copy sets must be identical, element for element. The GW trees with up to
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
	var s ballScratch
	for _, tc := range trees {
		for root := 0; root < tc.tree.N(); root++ {
			for r := 0; r <= 4; r++ {
				for d := 1; d <= 3; d++ {
					got := s.greedyCopySet(tc.tree, root, r, d)
					want := oracleGreedyCopySet(tc.tree, root, r, d)
					if !slices.Equal(got, want) {
						t.Fatalf("%s root %d r=%d d=%d: copy set %v, oracle %v", tc.name, root, r, d, got, want)
					}
				}
			}
		}
	}
}
