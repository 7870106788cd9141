package graph

import (
	"fmt"
	"testing"
)

// partitionShapes is the shape zoo the partitioner properties are checked
// over: adversarial constructions plus seeded random families.
func partitionShapes(t *testing.T) map[string]*Tree {
	t.Helper()
	shapes := map[string]*Tree{}
	add := func(name string, tr *Tree, err error) {
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		shapes[name] = tr
	}
	p1, err := BuildPath(1)
	add("single", p1, err)
	p2, err := BuildPath(2)
	add("edge", p2, err)
	path, err := BuildPath(257)
	add("path257", path, err)
	star, err := BuildStar(120)
	add("star120", star, err)
	cat, err := BuildCaterpillar(19, 6)
	add("caterpillar19x6", cat, err)
	hier, err := BuildHierarchical([]int{5, 11})
	if err != nil {
		t.Fatalf("build hierarchical: %v", err)
	}
	shapes["hierarchical5x11"] = hier.Tree
	bal, err := BuildBalanced(4, 200)
	add("balanced4x200", bal, err)
	// A spider: 30 legs of 1, 2, 3, 1, 2, 3, ... nodes on node 0, so its
	// children come in three equal-size classes, interleaved in port order,
	// and are more than a sort handles by insertion alone.
	b := NewBuilder(61)
	b.AddNode()
	for leg := range 30 {
		if _, err := b.AttachPath(0, 1+leg%3); err != nil {
			t.Fatalf("build spider: %v", err)
		}
	}
	spider, err := b.Build()
	add("spider30", spider, err)
	for _, seed := range []uint64{1, 42} {
		gw, err := BuildGaltonWatson(163, 4, seed)
		add(fmt.Sprintf("gw163-seed%d", seed), gw, err)
		lad, err := BuildLadder(144, seed)
		add(fmt.Sprintf("ladder144-seed%d", seed), lad, err)
	}
	return shapes
}

// checkLayout asserts every structural property a Layout must satisfy for
// tree tr at requested shard count k, recomputing the boundary-edge count
// by brute force. It returns the layout for further shape-specific checks.
func checkLayout(t *testing.T, tr *Tree, k int, l *Layout) {
	t.Helper()
	n := tr.N()
	want := k
	if want > n {
		want = n
	}
	if want < 1 {
		want = 1
	}
	if got := len(l.Cuts) - 1; got != want {
		t.Fatalf("%d shards, want %d (n=%d, k=%d)", got, want, n, k)
	}

	// Cuts: strictly increasing from 0 to n — every shard non-empty.
	if l.Cuts[0] != 0 || l.Cuts[len(l.Cuts)-1] != int32(n) {
		t.Fatalf("cuts %v do not span [0, %d]", l.Cuts, n)
	}
	for i := 1; i < len(l.Cuts); i++ {
		if l.Cuts[i] <= l.Cuts[i-1] {
			t.Fatalf("cuts %v not strictly increasing at %d", l.Cuts, i)
		}
	}

	// Perm: nil, or a valid permutation of 0..n-1.
	if l.Perm != nil {
		if len(l.Perm) != n {
			t.Fatalf("perm length %d, want %d", len(l.Perm), n)
		}
		seen := make([]bool, n)
		for v, p := range l.Perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("perm[%d] = %d is not a fresh position in [0,%d)", v, p, n)
			}
			seen[p] = true
		}
		inv := l.Inverse()
		for v := range l.Perm {
			if int(inv[l.Perm[v]]) != v {
				t.Fatalf("Inverse()[Perm[%d]] = %d", v, inv[l.Perm[v]])
			}
		}
	} else if l.Inverse() != nil {
		t.Fatalf("identity layout returned non-nil Inverse()")
	}

	// BoundaryEdges equals an independent brute-force recount.
	owner := l.Owners()
	if len(owner) != n {
		t.Fatalf("Owners() length %d, want %d", len(owner), n)
	}
	ownerOf := func(v int) int32 {
		if l.Perm != nil {
			return owner[l.Perm[v]]
		}
		return owner[v]
	}
	brute := 0
	for _, e := range tr.Edges() {
		if ownerOf(e[0]) != ownerOf(e[1]) {
			brute++
		}
	}
	if brute != l.BoundaryEdges {
		t.Fatalf("BoundaryEdges = %d, brute-force recount = %d", l.BoundaryEdges, brute)
	}

	// Never worse than the balanced range split.
	rangeBoundary := 0
	rc := RangeCuts(n, k)
	rOwner := (&Layout{Cuts: rc}).Owners()
	for _, e := range tr.Edges() {
		if rOwner[e[0]] != rOwner[e[1]] {
			rangeBoundary++
		}
	}
	if l.BoundaryEdges > rangeBoundary {
		t.Fatalf("BoundaryEdges = %d exceeds range layout's %d", l.BoundaryEdges, rangeBoundary)
	}
}

func TestPartitionProperties(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		for _, k := range []int{1, 2, 3, 4, 7, 16, tr.N(), tr.N() + 5} {
			l := Partition(tr, k)
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				checkLayout(t, tr, k, l)
			})
		}
	}
}

// TestPartitionAllocs bounds what Partition allocates on a 4096-node path:
// a fixed set of arrays per candidate layout, nothing per node.
func TestPartitionAllocs(t *testing.T) {
	tr, err := BuildPath(4096)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Partition(tr, 2) }); allocs > 32 {
		t.Fatalf("Partition(path4096, 2): %v allocations, want at most 32", allocs)
	}
}

// TestPreorderSubtreeIntervals pins the fat-preorder property directly:
// under either child order, every rooted subtree occupies one contiguous
// interval of positions whose width is the subtree size.
func TestPreorderSubtreeIntervals(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		parent, order := tr.RootAt(0)
		size := subtreeSizes(tr, parent, order)
		for _, heavyFirst := range []bool{false, true} {
			perm := preorderPerm(tr, parent, size, heavyFirst)
			minP := make([]int32, tr.N())
			maxP := make([]int32, tr.N())
			copy(minP, perm)
			copy(maxP, perm)
			for i := len(order) - 1; i > 0; i-- {
				v, p := order[i], parent[order[i]]
				if minP[v] < minP[p] {
					minP[p] = minP[v]
				}
				if maxP[v] > maxP[p] {
					maxP[p] = maxP[v]
				}
			}
			for v := 0; v < tr.N(); v++ {
				if maxP[v]-minP[v]+1 != size[v] {
					t.Fatalf("%s heavyFirst=%v: subtree of %d spans [%d,%d] but has %d nodes",
						name, heavyFirst, v, minP[v], maxP[v], size[v])
				}
				if perm[v] != minP[v] {
					t.Fatalf("%s heavyFirst=%v: node %d at position %d is not first in its subtree interval [%d,%d]",
						name, heavyFirst, v, perm[v], minP[v], maxP[v])
				}
			}
		}
	}
}

func TestRangeCuts(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want []int32
	}{
		{10, 2, []int32{0, 5, 10}},
		{10, 3, []int32{0, 4, 7, 10}},
		{5, 4, []int32{0, 2, 3, 4, 5}}, // ceil-chunking would yield 3 shards (2,2,1)
		{5, 7, []int32{0, 1, 2, 3, 4, 5}},
		{1, 1, []int32{0, 1}},
		{3, 0, []int32{0, 3}},
	} {
		got := RangeCuts(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("RangeCuts(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("RangeCuts(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
	}
}

// TestPartitionReducesBoundary pins the regression the subtree layout
// exists for: on shapes whose construction numbering scatters subtrees, the
// partitioned layout cuts boundary edges by well over the 30% acceptance
// floor, at every shard count the differential suite runs.
func TestPartitionReducesBoundary(t *testing.T) {
	shapes := partitionShapes(t)
	for _, name := range []string{"caterpillar19x6", "hierarchical5x11"} {
		tr := shapes[name]
		for _, k := range []int{2, 4, 7} {
			rangeBoundary := countBoundary(tr, nil, RangeCuts(tr.N(), k))
			l := Partition(tr, k)
			if rangeBoundary == 0 {
				t.Fatalf("%s k=%d: range layout has no boundary edges", name, k)
			}
			reduction := 1 - float64(l.BoundaryEdges)/float64(rangeBoundary)
			t.Logf("%s k=%d: boundary %d -> %d (%.0f%% reduction)", name, k, rangeBoundary, l.BoundaryEdges, 100*reduction)
			if reduction < 0.30 {
				t.Errorf("%s k=%d: subtree layout reduces boundary edges by %.0f%% (%d -> %d), want >= 30%%",
					name, k, 100*reduction, rangeBoundary, l.BoundaryEdges)
			}
		}
	}
}

func TestPermuteTree(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		l := Partition(tr, 4)
		perm := l.Perm
		if perm == nil { // identity won; permute by a preorder anyway
			parent, order := tr.RootAt(0)
			perm = preorderPerm(tr, parent, subtreeSizes(tr, parent, order), false)
		}
		pt := PermuteTree(tr, perm)
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: permuted tree invalid: %v", name, err)
		}
		if pt.N() != tr.N() || pt.m != tr.m || pt.MaxDegree() != tr.MaxDegree() {
			t.Fatalf("%s: permuted tree shape mismatch", name)
		}
		for v := 0; v < tr.N(); v++ {
			if pt.Degree(int(perm[v])) != tr.Degree(v) {
				t.Fatalf("%s: degree of %d changed under permutation", name, v)
			}
			for p := 0; p < tr.Degree(v); p++ {
				if got, want := int(pt.NeighborsRaw(int(perm[v]))[p]), int(perm[tr.NeighborsRaw(v)[p]]); got != want {
					t.Fatalf("%s: port %d of node %d maps to %d, want %d", name, p, v, got, want)
				}
			}
		}
	}
}

// FuzzPartition drives the partitioner over seeded Galton-Watson and ladder
// trees and rechecks every structural property on each. The seed corpus
// covers both families at several sizes and shard counts; the fuzzer then
// explores the (family, size, seed, shards) space.
func FuzzPartition(f *testing.F) {
	f.Add(true, 50, uint64(1), 3)
	f.Add(true, 163, uint64(42), 7)
	f.Add(false, 50, uint64(1), 4)
	f.Add(false, 144, uint64(7), 2)
	f.Add(true, 1, uint64(0), 1)
	f.Add(false, 9, uint64(3), 16)
	f.Fuzz(func(t *testing.T, gw bool, n int, seed uint64, k int) {
		if n < 1 || n > 2048 || k < -4 || k > 64 {
			t.Skip()
		}
		var tr *Tree
		var err error
		if gw {
			tr, err = BuildGaltonWatson(n, 4, seed)
		} else {
			tr, err = BuildLadder(n, seed)
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		checkLayout(t, tr, k, Partition(tr, k))
	})
}
