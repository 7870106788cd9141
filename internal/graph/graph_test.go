package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuildPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100} {
		p, err := BuildPath(n)
		if err != nil {
			t.Fatalf("BuildPath(%d): %v", n, err)
		}
		if p.N() != n || p.m != n-1 {
			t.Fatalf("BuildPath(%d): got %d nodes %d edges", n, p.N(), p.m)
		}
		if p.MaxDegree() > 2 {
			t.Fatalf("BuildPath(%d): max degree %d, not a path graph", n, p.MaxDegree())
		}
		if got := slices.Max(p.BFS(0)); got != n-1 {
			t.Fatalf("BuildPath(%d): node 0 is %d hops from the far end, want %d", n, got, n-1)
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
	if ecc := slices.Max(s.BFS(1)); ecc != 2 {
		t.Fatalf("leaf eccentricity = %d, want 2", ecc)
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
	if ecc := slices.Max(tr.BFS(0)); ecc > 10 {
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
	// The radius-2 ball of node 5 is the nodes BFS puts within 2 hops.
	var ball []int
	for v, d := range p.BFS(5) {
		if d <= 2 {
			ball = append(ball, v)
		}
	}
	if want := []int{3, 4, 5, 6, 7}; !slices.Equal(ball, want) {
		t.Fatalf("ball = %v, want %v", ball, want)
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
		// Brute force: Floyd-Warshall over the adjacency.
		dist := make([][]int, n)
		for u := range dist {
			dist[u] = make([]int, n)
			for w := range dist[u] {
				if u != w {
					dist[u][w] = n
				}
			}
			for _, w := range tr.NeighborsRaw(u) {
				dist[u][w] = 1
			}
		}
		for k := range n {
			for u := range n {
				for w := range n {
					dist[u][w] = min(dist[u][w], dist[u][k]+dist[k][w])
				}
			}
		}
		want := 0
		for u := range n {
			if !slices.Equal(tr.BFS(u), dist[u]) {
				return false
			}
			want = max(want, slices.Max(dist[u]))
		}
		// The double sweep finds the diameter on a tree.
		far := slices.Index(tr.BFS(0), slices.Max(tr.BFS(0)))
		return slices.Max(tr.BFS(far)) == want
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
	if p.NeighborsRaw(1)[0] == 99 {
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
