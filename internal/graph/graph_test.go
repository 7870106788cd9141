package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100} {
		p, err := BuildPath(n)
		if err != nil {
			t.Fatalf("BuildPath(%d): %v", n, err)
		}
		if p.N() != n || p.M() != n-1 {
			t.Fatalf("BuildPath(%d): got %d nodes %d edges", n, p.N(), p.M())
		}
		if !p.IsPathGraph() {
			t.Fatalf("BuildPath(%d): not a path graph", n)
		}
		if got := p.Diameter(); got != n-1 {
			t.Fatalf("BuildPath(%d): diameter = %d, want %d", n, got, n-1)
		}
	}
}

func TestBuildPathRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, -1, -10} {
		if _, err := BuildPath(n); err == nil {
			t.Errorf("BuildPath(%d): want error", n)
		}
	}
}

func TestBuildStar(t *testing.T) {
	s, err := BuildStar(7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Degree(0) != 6 {
		t.Fatalf("center degree = %d, want 6", s.Degree(0))
	}
	for v := 1; v < 7; v++ {
		if s.Degree(v) != 1 {
			t.Fatalf("leaf %d degree = %d, want 1", v, s.Degree(v))
		}
	}
	if s.Diameter() != 2 {
		t.Fatalf("star diameter = %d, want 2", s.Diameter())
	}
}

func TestBuildBalancedRespectsMaxDegree(t *testing.T) {
	for _, tc := range []struct{ delta, size int }{
		{3, 1}, {3, 2}, {3, 10}, {4, 50}, {5, 200}, {8, 1000},
	} {
		tr, err := BuildBalanced(tc.delta, tc.size)
		if err != nil {
			t.Fatalf("BuildBalanced(%d,%d): %v", tc.delta, tc.size, err)
		}
		if tr.N() != tc.size {
			t.Fatalf("size = %d, want %d", tr.N(), tc.size)
		}
		// Root can have delta-1 children (it reserves one port for external
		// attachment); all other nodes have at most delta-1 children plus a
		// parent, i.e. degree at most delta.
		if tr.Degree(0) > tc.delta-1 {
			t.Fatalf("root degree %d > %d", tr.Degree(0), tc.delta-1)
		}
		if tr.MaxDegree() > tc.delta {
			t.Fatalf("max degree %d > delta %d", tr.MaxDegree(), tc.delta)
		}
	}
}

func TestBuildBalancedDepthIsLogarithmic(t *testing.T) {
	tr, err := BuildBalanced(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// fan-out 3, 1000 nodes: depth about log_3(1000) ~ 7.
	if ecc := tr.Eccentricity(0); ecc > 10 {
		t.Fatalf("eccentricity of balanced tree root = %d, want <= 10", ecc)
	}
}

func TestBuildCaterpillar(t *testing.T) {
	c, err := BuildCaterpillar(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 40 {
		t.Fatalf("N = %d, want 40", c.N())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsInvalidEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddNodes(2)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestBuildDetectsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddNodes(4)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 2, 3)
	// 3 nodes reachable issue: m=2 != n-1=3 -> not a tree.
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBuildDetectsCycle(t *testing.T) {
	b := NewBuilder(3)
	b.AddNodes(3)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 1, 2)
	mustEdge(t, b, 2, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func mustEdge(t *testing.T, b *Builder, u, v int) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestBallRadius(t *testing.T) {
	p, err := BuildPath(11)
	if err != nil {
		t.Fatal(err)
	}
	ball := p.Ball(5, 2)
	if len(ball) != 5 {
		t.Fatalf("ball size = %d, want 5 (nodes 3..7)", len(ball))
	}
	want := map[int]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	for _, v := range ball {
		if !want[v] {
			t.Fatalf("unexpected node %d in ball", v)
		}
	}
}

func TestHierarchicalSizeFormula(t *testing.T) {
	for _, lengths := range [][]int{{5}, {3, 4}, {2, 3, 4}, {5, 5, 5, 5}} {
		h, err := BuildHierarchical(lengths)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tree.N() != HierarchicalSize(lengths) {
			t.Fatalf("lengths %v: N = %d, formula says %d", lengths, h.Tree.N(), HierarchicalSize(lengths))
		}
		if err := h.Tree.Validate(); err != nil {
			t.Fatalf("lengths %v: %v", lengths, err)
		}
	}
}

func TestHierarchicalLevelCounts(t *testing.T) {
	// Corollary 19: |L_i| = prod_{i<=j<=k} ell_j for construction levels.
	lengths := []int{3, 4, 5}
	h, err := BuildHierarchical(lengths)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, l := range h.ConsLevel {
		counts[l]++
	}
	if counts[3] != 5 || counts[2] != 4*5 || counts[1] != 3*4*5 {
		t.Fatalf("construction level counts = %v, want [_, 60, 20, 5]", counts)
	}
}

func TestHierarchicalPeelingLevelsMostlyMatchConstruction(t *testing.T) {
	// Definition 8 peeling should agree with construction levels on all but
	// O(k) boundary nodes per path: path endpoints erode by one node per
	// peeling iteration, so each path end contributes up to k mismatches.
	// The paper's parameters (ell_i = t^{2^{i-1}}) dwarf this erosion.
	lengths := []int{9, 9, 9}
	h, err := BuildHierarchical(lengths)
	if err != nil {
		t.Fatal(err)
	}
	levels := ComputeLevels(h.Tree, 3)
	mismatch := 0
	for v := range levels {
		if levels[v] != int(h.ConsLevel[v]) {
			mismatch++
		}
	}
	// Each path end erodes at most k nodes; allow a generous constant per
	// path.
	numPaths := len(h.Paths[1]) + len(h.Paths[2])
	if mismatch > 8*numPaths {
		t.Fatalf("peeling mismatches construction on %d nodes (paths=%d)", mismatch, numPaths)
	}
	// Middle of the level-3 path must be genuinely level 3.
	top := h.Paths[2][0]
	mid := top[len(top)/2]
	if levels[mid] != 3 {
		t.Fatalf("middle of top path has level %d, want 3", levels[mid])
	}
}

func TestComputeLevelsOnPath(t *testing.T) {
	p, err := BuildPath(20)
	if err != nil {
		t.Fatal(err)
	}
	levels := ComputeLevels(p, 3)
	for v, l := range levels {
		if l != 1 {
			t.Fatalf("node %d on path has level %d, want 1", v, l)
		}
	}
}

func TestComputeLevelsAllAtMostKPlus1(t *testing.T) {
	h, err := BuildHierarchical([]int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	levels := ComputeLevels(h.Tree, 2)
	for v, l := range levels {
		if l < 1 || l > 3 {
			t.Fatalf("node %d level %d outside [1,3]", v, l)
		}
	}
}

func TestInducedPathsOnHierarchical(t *testing.T) {
	h, err := BuildHierarchical([]int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	levels := ComputeLevels(h.Tree, 2)
	paths := InducedPaths(h.Tree, func(v int) bool { return levels[v] == 1 })
	// Each pendant path is one component; endpoints of the level-2 path may
	// join level 1, possibly merging with their pendant paths.
	if len(paths) < 4 {
		t.Fatalf("got %d level-1 paths, want >= 4", len(paths))
	}
	covered := make([]int, h.Tree.N())
	for _, p := range paths {
		for i, v := range p {
			covered[v]++
			if i > 0 && !h.Tree.HasEdge(p[i-1], v) {
				t.Fatalf("path ordering broken at %v", p)
			}
		}
	}
	for v, c := range covered {
		if c > 1 || (c == 1) != (levels[v] == 1) {
			t.Fatalf("node %d (level %d) lies on %d level-1 paths", v, levels[v], c)
		}
	}
}

// randomTree builds a random tree on n nodes via a random attachment process.
func randomTree(rng *rand.Rand, n int) *Tree {
	b := NewBuilder(n)
	b.AddNode()
	for v := 1; v < n; v++ {
		b.AddNode()
		if err := b.AddEdge(v, rng.Intn(v)); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

func TestRandomTreesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 2+rng.Intn(200))
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree %d: %v", i, err)
		}
	}
}

func TestQuickDiameterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz)%60
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, n)
		// Brute force: max over all BFS.
		want := 0
		for v := 0; v < n; v++ {
			for _, d := range tr.BFS(v) {
				if d > want {
					want = d
				}
			}
		}
		return tr.Diameter() == want
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelsPartitionNodes(t *testing.T) {
	f := func(seed int64, sz uint8, kk uint8) bool {
		n := 2 + int(sz)%150
		k := 1 + int(kk)%4
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, n)
		levels := ComputeLevels(tr, k)
		for _, l := range levels {
			if l < 1 || l > k+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelsMonotoneRemoval(t *testing.T) {
	// Invariant: in the subgraph of nodes with level >= i, every node of
	// level i has degree <= 2 (that is why it was removed at iteration i).
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%150
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, n)
		k := 3
		levels := ComputeLevels(tr, k)
		for v := 0; v < n; v++ {
			l := levels[v]
			if l == k+1 {
				continue
			}
			deg := 0
			for _, w := range tr.NeighborsRaw(v) {
				if levels[w] >= l {
					deg++
				}
			}
			if deg > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsReturnsCopy(t *testing.T) {
	p, err := BuildPath(3)
	if err != nil {
		t.Fatal(err)
	}
	nb := p.Neighbors(1)
	nb[0] = 99
	if p.Neighbor(1, 0) == 99 {
		t.Fatal("Neighbors exposed internal storage")
	}
}

func TestEdges(t *testing.T) {
	p, err := BuildPath(4)
	if err != nil {
		t.Fatal(err)
	}
	edges := p.Edges()
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized", e)
		}
	}
}
