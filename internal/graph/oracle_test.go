package graph

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The differential tests below hold the flat-array graph layer to the
// straightforward implementations it replaced: a Builder that appends to
// per-node neighbor slices and flattens them, a Validate that marks each
// node's neighbors in a fresh map, and an InducedComponents that re-indexes
// every component through a map and rebuilds it with that Builder. Every
// array the real code produces must equal the oracle's.

// oracleBuilder is the append-based Builder: port p of v is the p-th edge
// added at v because AddEdge appends to both endpoints' lists.
type oracleBuilder struct {
	adj [][]int32
	m   int
}

func (b *oracleBuilder) addNodes(k int) int {
	first := len(b.adj)
	for i := 0; i < k; i++ {
		b.adj = append(b.adj, nil)
	}
	return first
}

func (b *oracleBuilder) addEdge(u, v int) error {
	if u < 0 || v < 0 || u >= len(b.adj) || v >= len(b.adj) {
		return fmt.Errorf("%w: edge {%d,%d} with %d nodes", ErrNodeRange, u, v, len(b.adj))
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	b.m++
	return nil
}

// csr flattens the per-node lists without validating.
func (b *oracleBuilder) csr() *Tree {
	n := len(b.adj)
	off := make([]int32, n+1)
	nbr := make([]int32, 0, 2*b.m)
	maxDeg := 0
	for v, a := range b.adj {
		off[v] = int32(len(nbr))
		nbr = append(nbr, a...)
		maxDeg = max(maxDeg, len(a))
	}
	off[n] = int32(len(nbr))
	return &Tree{off: off, nbr: nbr, m: b.m, maxDeg: maxDeg}
}

func (b *oracleBuilder) build() (*Tree, error) {
	t := b.csr()
	if err := oracleValidate(t); err != nil {
		return nil, err
	}
	return t, nil
}

// oracleValidate is Validate with a fresh map per node for the duplicate
// check.
func oracleValidate(t *Tree) error {
	n := t.N()
	if n == 0 {
		return ErrEmpty
	}
	if t.m != n-1 {
		return fmt.Errorf("%w: %d nodes but %d edges", ErrNotATree, n, t.m)
	}
	seen := 0
	for _, d := range t.BFS(0) {
		if d >= 0 {
			seen++
		}
	}
	if seen != n {
		return fmt.Errorf("%w: BFS reached %d of %d nodes", ErrNotConnected, seen, n)
	}
	for v := 0; v < n; v++ {
		nbs := t.NeighborsRaw(v)
		mark := make(map[int32]bool, len(nbs))
		for _, w := range nbs {
			if int(w) == v {
				return fmt.Errorf("%w at node %d", ErrSelfLoop, v)
			}
			if mark[w] {
				return fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, v, w)
			}
			mark[w] = true
		}
	}
	return nil
}

// oracleComponent is a component as the map-based InducedComponents
// returned it.
type oracleComponent struct {
	tree  *Tree
	nodes []int
	index map[int]int
}

// oracleInducedComponents labels components by BFS within the mask, maps
// parent indices to component indices through a map, and adds each
// component edge {i, j} with i < j while scanning node i's neighbors in
// parent-graph port order.
func oracleInducedComponents(t *Tree, mask []bool) []oracleComponent {
	n := t.N()
	seen := make([]bool, n)
	var comps []oracleComponent
	for s := 0; s < n; s++ {
		if !mask[s] || seen[s] {
			continue
		}
		var nodes []int
		seen[s] = true
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			nodes = append(nodes, v)
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if mask[u] && !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		index := make(map[int]int, len(nodes))
		for i, v := range nodes {
			index[v] = i
		}
		b := &oracleBuilder{}
		b.addNodes(len(nodes))
		for i, v := range nodes {
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if j, ok := index[u]; ok && mask[u] && j > i {
					if err := b.addEdge(i, j); err != nil {
						panic(err)
					}
				}
			}
		}
		tree, err := b.build()
		if err != nil {
			panic(err)
		}
		comps = append(comps, oracleComponent{tree: tree, nodes: nodes, index: index})
	}
	return comps
}

func (c oracleComponent) indexOf(parent int) int {
	if i, ok := c.index[parent]; ok {
		return i
	}
	return -1
}

// sameCSR reports the first difference between two trees' CSR arrays.
func sameCSR(got, want *Tree) error {
	if got.m != want.m || got.MaxDegree() != want.MaxDegree() {
		return fmt.Errorf("m/maxDeg %d/%d, want %d/%d", got.m, got.MaxDegree(), want.m, want.MaxDegree())
	}
	if !slices.Equal(got.Offsets(), want.Offsets()) {
		return fmt.Errorf("offsets %v, want %v", got.Offsets(), want.Offsets())
	}
	if !slices.Equal(got.AdjacencyRaw(), want.AdjacencyRaw()) {
		return fmt.Errorf("adjacency %v, want %v", got.AdjacencyRaw(), want.AdjacencyRaw())
	}
	return nil
}

// checkComponentsAgainstOracle compares both sides of InducedComponents
// with the oracle on one (tree, mask) input, the out side with the oracle on
// the complement mask: component order, Nodes, both CSR arrays, and IndexOf
// on every v in [-1, n]. Every component's IndexOf must be -1 on every node
// of the other side.
func checkComponentsAgainstOracle(t *testing.T, name string, tr *Tree, mask []bool) {
	t.Helper()
	in, out := InducedComponents(tr, mask)
	complement := Mask(tr, func(v int) bool { return !mask[v] })
	sameComponentsAsOracle(t, name+" in", tr.N(), in, oracleInducedComponents(tr, mask))
	sameComponentsAsOracle(t, name+" out", tr.N(), out, oracleInducedComponents(tr, complement))
	for _, side := range []struct {
		comps []*Component
		other []bool
	}{{in, complement}, {out, mask}} {
		for c, comp := range side.comps {
			for v, other := range side.other {
				if other && comp.IndexOf(v) != -1 {
					t.Fatalf("%s: component %d IndexOf(%d) = %d across sides", name, c, v, comp.IndexOf(v))
				}
			}
		}
	}
}

// sameComponentsAsOracle compares one side of InducedComponents on an
// n-node tree with the oracle's components.
func sameComponentsAsOracle(t *testing.T, name string, n int, got []*Component, want []oracleComponent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, oracle %d", name, len(got), len(want))
	}
	for c := range want {
		g, w := got[c], want[c]
		if !slices.Equal(g.Nodes, w.nodes) {
			t.Fatalf("%s: component %d Nodes %v, oracle %v", name, c, g.Nodes, w.nodes)
		}
		if err := sameCSR(g.Tree, w.tree); err != nil {
			t.Fatalf("%s: component %d: %v", name, c, err)
		}
		for v := -1; v <= n; v++ {
			if gi, wi := g.IndexOf(v), w.indexOf(v); gi != wi {
				t.Fatalf("%s: component %d IndexOf(%d) = %d, oracle %d", name, c, v, gi, wi)
			}
		}
	}
}

// drawMask returns one of the fixed masks (all true, all false, the two
// alternations) for draws 0-3 and a random mask of random density after.
func drawMask(rng *rand.Rand, n, draw int) []bool {
	mask := make([]bool, n)
	density := rng.Float64()
	for v := range mask {
		switch draw {
		case 0:
			mask[v] = true
		case 1:
			mask[v] = false
		case 2, 3:
			mask[v] = v%2 == draw%2
		default:
			mask[v] = rng.Float64() < density
		}
	}
	return mask
}

// relabel returns t under a random permutation drawn from r. Every Build*
// family numbers nodes away from node 0 and adds each node's edge to its
// parent first, so there a component's BFS parent is always port 0 and the
// component port order equals plain parent-graph port order. After
// relabeling, a component's lowest index is an arbitrary node of it, so BFS
// parents sit at other ports and the two orders differ.
func relabel(r *splitmix, t *Tree) *Tree {
	n := t.N()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return PermuteTree(t, perm)
}

// TestInducedComponentsMatchesOracle runs both implementations on GW,
// ladder, caterpillar and hierarchical trees, as built and relabeled, under
// 300 masks each.
func TestInducedComponentsMatchesOracle(t *testing.T) {
	gw, err := BuildGaltonWatson(400, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := BuildLadder(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := BuildCaterpillar(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := BuildHierarchical([]int{4, 7, 6})
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		name string
		tree *Tree
	}
	var trees []sample
	r := splitmix{s: 3}
	for _, tc := range []sample{{"gw400", gw}, {"ladder300", ladder}, {"caterpillar20x4", cat}, {"hierarchical4x7x6", hier.Tree}} {
		trees = append(trees, tc, sample{tc.name + "-relabeled", relabel(&r, tc.tree)})
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range trees {
		for draw := 0; draw < 300; draw++ {
			mask := drawMask(rng, tc.tree.N(), draw)
			checkComponentsAgainstOracle(t, fmt.Sprintf("%s/mask%d", tc.name, draw), tc.tree, mask)
		}
	}
}

// TestBuilderMatchesAppendBuilder feeds random edge sequences (random trees
// added in shuffled order with random endpoint order, plus edges that close
// cycles or repeat) to both builders: the CSR arrays and the Build errors
// must agree.
func TestBuilderMatchesAppendBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		type edge struct{ u, v int }
		var edges []edge
		for v := 1; v < n; v++ {
			edges = append(edges, edge{v, rng.Intn(v)})
		}
		if trial%5 == 4 && n > 2 { // one extra edge: a cycle or a duplicate
			edges = append(edges, edge{rng.Intn(n), rng.Intn(n)})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		b := NewBuilder(n)
		ob := &oracleBuilder{}
		b.AddNodes(n)
		ob.addNodes(n)
		for _, e := range edges {
			if rng.Intn(2) == 0 {
				e.u, e.v = e.v, e.u
			}
			gerr, werr := b.AddEdge(e.u, e.v), ob.addEdge(e.u, e.v)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d: AddEdge(%d,%d) = %v, oracle %v", trial, e.u, e.v, gerr, werr)
			}
		}
		if b.n != n {
			t.Fatalf("trial %d: n = %d, want %d", trial, b.n, n)
		}
		got, gerr := b.Build()
		want, werr := ob.build()
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: Build error %v, oracle %v", trial, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if err := sameCSR(got, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// csrDigest is an FNV-1a digest of a tree's offset and neighbor arrays.
func csrDigest(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, xs := range [][]int32{t.Offsets(), t.AdjacencyRaw()} {
		for _, x := range xs {
			buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestBuildFamiliesMatchAppendBuilder pins the CSR arrays of every Build*
// family. The digests were recorded from the append-based builder
// (oracleBuilder's layout), so a Build that groups a node's edges out of
// insertion order, or a family that reorders its AddEdge calls, fails here.
// Port order is observable: it decides which neighbor a simulated machine
// hears on each port.
func TestBuildFamiliesMatchAppendBuilder(t *testing.T) {
	type family struct {
		name  string
		build func() (*Tree, error)
		want  uint64
	}
	hier := func(lengths ...int) func() (*Tree, error) {
		return func() (*Tree, error) {
			h, err := BuildHierarchical(lengths)
			if err != nil {
				return nil, err
			}
			return h.Tree, nil
		}
	}
	families := []family{
		{"path1", func() (*Tree, error) { return BuildPath(1) }, 0xa8c7f832281a39c5},
		{"path1000", func() (*Tree, error) { return BuildPath(1000) }, 0xff44d6c468ffd73a},
		{"star7", func() (*Tree, error) { return BuildStar(7) }, 0x75e09a75d665c64f},
		{"balanced3x100", func() (*Tree, error) { return BuildBalanced(3, 100) }, 0xe8d4191f9571fc81},
		{"balanced6x1000", func() (*Tree, error) { return BuildBalanced(6, 1000) }, 0xeddaea5c38369d6b},
		{"caterpillar10x3", func() (*Tree, error) { return BuildCaterpillar(10, 3) }, 0x1710e40561827eff},
		{"hierarchical3x4x5", hier(3, 4, 5), 0xe6f62948a5dce665},
		{"hierarchical2x9", hier(2, 9), 0x223ee5a6c81c7fe1},
		{"gw500c3s42", func() (*Tree, error) { return BuildGaltonWatson(500, 3, 42) }, 0xccf69467db3108da},
		{"gw300c20s7", func() (*Tree, error) { return BuildGaltonWatson(300, 20, 7) }, 0xa1475fe8739f53c4},
		{"ladder500s9", func() (*Tree, error) { return BuildLadder(500, 9) }, 0xc5c9b1d7db5149f3},
	}
	for _, f := range families {
		tr, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := csrDigest(tr); got != f.want {
			t.Errorf("%s: CSR digest %#x, want %#x", f.name, got, f.want)
		}
	}
}

// corruptTrees are hand-made CSRs that break one tree invariant each.
func corruptTrees() map[string]*Tree {
	csr := func(m int, adj ...[]int32) *Tree {
		b := &oracleBuilder{adj: adj, m: m}
		return b.csr()
	}
	return map[string]*Tree{
		"empty":        csr(0),
		"self-loop":    csr(2, []int32{1}, []int32{0, 1, 2}, []int32{1}),
		"duplicate":    csr(2, []int32{1, 1}, []int32{0, 0, 2}, []int32{1}),
		"disconnected": csr(3, []int32{1, 2}, []int32{0, 2}, []int32{0, 1}, nil),
		"m-too-large":  csr(3, []int32{1}, []int32{0, 2}, []int32{1}),
		"m-too-small":  csr(1, []int32{1}, []int32{0, 2}, []int32{1}),
		"cycle":        csr(3, []int32{1, 2}, []int32{0, 2}, []int32{0, 1}),
		"valid":        csr(2, []int32{1}, []int32{0, 2}, []int32{1}),
	}
}

// TestValidateMatchesOracle: Validate returns the oracle's error, text and
// sentinel, on each corrupted CSR and nil on valid trees.
func TestValidateMatchesOracle(t *testing.T) {
	for name, tr := range corruptTrees() {
		got, want := tr.Validate(), oracleValidate(tr)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Validate = %v, oracle %v", name, got, want)
		}
		for _, sentinel := range []error{ErrEmpty, ErrNotATree, ErrNotConnected, ErrSelfLoop, ErrDuplicateEdge} {
			if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
				t.Fatalf("%s: errors.Is(%v) differs from the oracle", name, sentinel)
			}
		}
		if name != "valid" && want == nil {
			t.Fatalf("%s: oracle accepted a corrupt CSR", name)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 1+rng.Intn(100))
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree rejected: %v", err)
		}
	}
}

// FuzzInducedComponents is the differential fuzz target: it builds a GW
// (family 0 mod 4), ladder (1), relabeled GW (2) or relabeled ladder (3)
// tree, draws a mask from maskSeed, and compares InducedComponents with the
// oracle. The seed corpus covers all four families, the single-node tree,
// and sparse and dense masks, so a plain go test replays it.
func FuzzInducedComponents(f *testing.F) {
	f.Add(uint8(0), 60, uint64(1), uint64(2))
	f.Add(uint8(0), 500, uint64(42), uint64(7))
	f.Add(uint8(1), 60, uint64(3), uint64(4))
	f.Add(uint8(1), 257, uint64(9), uint64(1))
	f.Add(uint8(0), 1, uint64(0), uint64(0))
	f.Add(uint8(1), 2, uint64(5), uint64(8))
	f.Add(uint8(2), 300, uint64(6), uint64(3))
	f.Add(uint8(3), 200, uint64(2), uint64(5))
	f.Fuzz(func(t *testing.T, family uint8, n int, seed, maskSeed uint64) {
		if n < 1 || n > 2048 {
			t.Skip()
		}
		var tr *Tree
		var err error
		if family%2 == 0 {
			tr, err = BuildGaltonWatson(n, 4, seed)
		} else {
			tr, err = BuildLadder(n, seed)
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		r := splitmix{s: maskSeed}
		if family%4 >= 2 {
			tr = relabel(&r, tr)
		}
		density := r.next()
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = r.next() < density
		}
		checkComponentsAgainstOracle(t, "fuzz", tr, mask)
	})
}

// oracleInducedPaths is the maximal-path walk as decomp.Compute first
// wrote it for its compress runs, in three functions: one scan for unseen
// kept nodes, one walk to an end and one walk back collecting the run.
func oracleInducedPaths(t *Tree, keep func(v int) bool) [][]int {
	seen := make([]bool, t.N())
	var runs [][]int
	for v := range seen {
		if !keep(v) || seen[v] {
			continue
		}
		runs = append(runs, oracleCollectRun(t, keep, oracleWalkToEnd(t, keep, v), seen))
	}
	return runs
}

func oracleWalkToEnd(t *Tree, keep func(v int) bool, v int) int {
	prev, cur := -1, v
	for {
		next := -1
		for _, w := range t.NeighborsRaw(cur) {
			u := int(w)
			if u != prev && keep(u) {
				next = u
				break
			}
		}
		if next == -1 {
			return cur
		}
		prev, cur = cur, next
	}
}

func oracleCollectRun(t *Tree, keep func(v int) bool, end int, seen []bool) []int {
	run := []int{end}
	seen[end] = true
	prev, cur := -1, end
	for {
		next := -1
		for _, w := range t.NeighborsRaw(cur) {
			u := int(w)
			if u != prev && keep(u) && !seen[u] {
				next = u
				break
			}
		}
		if next == -1 {
			return run
		}
		seen[next] = true
		run = append(run, next)
		prev, cur = cur, next
	}
}

// checkPathsAgainstOracle compares InducedPaths with the oracle on one
// (tree, mask) input. Where every kept node has at most two kept neighbors
// it also checks that the paths are the components of the kept subgraph,
// each listed along its edges.
func checkPathsAgainstOracle(t *testing.T, name string, tr *Tree, mask []bool) {
	t.Helper()
	keep := func(v int) bool { return mask[v] }
	got := InducedPaths(tr, keep)
	want := oracleInducedPaths(tr, keep)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: paths %v, oracle %v", name, got, want)
	}
	kept := 0
	for v := range mask {
		if !mask[v] {
			continue
		}
		kept++
		keptNbrs := 0
		for _, w := range tr.NeighborsRaw(v) {
			if mask[w] {
				keptNbrs++
			}
		}
		if keptNbrs > 2 {
			return
		}
	}
	if comps, _ := InducedComponents(tr, mask); len(got) != len(comps) {
		t.Fatalf("%s: %d paths for %d components", name, len(got), len(comps))
	}
	seen := make([]bool, tr.N())
	for _, p := range got {
		// The paths share one backing array; capping each at its length
		// keeps an append to one from overwriting the next.
		if cap(p) != len(p) {
			t.Fatalf("%s: path %v has capacity %d", name, p, cap(p))
		}
		for i, v := range p {
			if !mask[v] || seen[v] || (i > 0 && !tr.HasEdge(p[i-1], v)) {
				t.Fatalf("%s: path %v is not a path of kept nodes", name, p)
			}
			seen[v] = true
			kept--
		}
	}
	if kept != 0 {
		t.Fatalf("%s: %d kept nodes on no path", name, kept)
	}
}

// TestInducedPathsMatchesOracle runs InducedPaths and the decomp walk on
// random trees, as built and relabeled, keeping their degree-2 nodes (the
// compress candidates of a first peel), and on paths and caterpillars under
// random masks.
func TestInducedPathsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	r := splitmix{s: 71}
	for trial := 0; trial < 200; trial++ {
		tr := randomTree(rng, 1+rng.Intn(300))
		if trial%2 == 1 {
			tr = relabel(&r, tr)
		}
		deg2 := Mask(tr, func(v int) bool { return tr.Degree(v) == 2 })
		checkPathsAgainstOracle(t, fmt.Sprintf("random tree %d", trial), tr, deg2)
	}
	for _, n := range []int{1, 2, 3, 10, 200} {
		gw, err := BuildGaltonWatson(n, 2, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		checkPathsAgainstOracle(t, fmt.Sprintf("gw%d", n), relabel(&r, gw), Mask(gw, func(v int) bool { return gw.Degree(v) == 2 }))
	}
	path, err := BuildPath(120)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := BuildCaterpillar(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for draw := 0; draw < 100; draw++ {
		checkPathsAgainstOracle(t, fmt.Sprintf("path mask %d", draw), path, drawMask(rng, path.N(), draw))
		checkPathsAgainstOracle(t, fmt.Sprintf("relabeled path mask %d", draw), relabel(&r, path), drawMask(rng, path.N(), draw))
		checkPathsAgainstOracle(t, fmt.Sprintf("caterpillar mask %d", draw), cat, drawMask(rng, cat.N(), draw))
	}
}

// oracleComputeLevels is ComputeLevels as first written: an alive array,
// int degrees, and every iteration scans all nodes for its batch and
// appends it to a fresh slice.
func oracleComputeLevels(t *Tree, k int) []int {
	n := t.N()
	level := make([]int, n)
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = t.Degree(v)
		alive[v] = true
	}
	remaining := n
	for i := 1; i <= k && remaining > 0; i++ {
		var batch []int
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] <= 2 {
				batch = append(batch, v)
			}
		}
		for _, v := range batch {
			level[v] = i
			alive[v] = false
		}
		remaining -= len(batch)
		for _, v := range batch {
			for _, w := range t.NeighborsRaw(v) {
				if alive[w] {
					deg[w]--
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if alive[v] {
			level[v] = k + 1
		}
	}
	return level
}

// TestComputeLevelsMatchesOracle compares ComputeLevels with the scanning
// peel on random, GW, ladder and hierarchical trees, as built and
// relabeled, at k = 1..4 and at and past the depth where the peel removes
// every node, including the one- and two-node trees.
func TestComputeLevelsMatchesOracle(t *testing.T) {
	type sample struct {
		name string
		tree *Tree
	}
	rng := rand.New(rand.NewSource(13))
	var trees []sample
	for _, n := range []int{1, 2, 3, 50, 400} {
		trees = append(trees, sample{fmt.Sprintf("random%d", n), randomTree(rng, n)})
	}
	for _, n := range []int{1, 2, 300, 2000} {
		gw, err := BuildGaltonWatson(n, 4, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		ladder, err := BuildLadder(n, uint64(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, sample{fmt.Sprintf("gw%d", n), gw}, sample{fmt.Sprintf("ladder%d", n), ladder})
	}
	for _, lengths := range [][]int{{3, 4}, {4, 7, 6}, {2, 3, 3, 4}} {
		h, err := BuildHierarchical(lengths)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, sample{fmt.Sprintf("hierarchical%v", lengths), h.Tree})
	}
	r := splitmix{s: 13}
	for _, tc := range slices.Clone(trees) {
		trees = append(trees, sample{tc.name + "-relabeled", relabel(&r, tc.tree)})
	}
	for _, tc := range trees {
		depth := slices.Max(oracleComputeLevels(tc.tree, tc.tree.N()))
		for _, k := range []int{1, 2, 3, 4, depth, depth + 1, depth + 3} {
			got, want := ComputeLevels(tc.tree, k), oracleComputeLevels(tc.tree, k)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (n=%d) k=%d: levels %v, oracle %v", tc.name, tc.tree.N(), k, got, want)
			}
		}
	}
}

// oraclePreorderPerm is preorderPerm as it sorted each node's children
// before slices.SortStableFunc: sort.SliceStable with a closure per node.
func oraclePreorderPerm(t *Tree, parent, size []int32, heavyFirst bool) []int32 {
	n := t.N()
	perm := make([]int32, n)
	kids := make([]int32, 0, t.MaxDegree())
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	next := int32(0)
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
		sort.SliceStable(kids, func(i, j int) bool {
			if heavyFirst {
				return size[kids[i]] > size[kids[j]]
			}
			return size[kids[i]] < size[kids[j]]
		})
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return perm
}

// oraclePartition is Partition over oraclePreorderPerm.
func oraclePartition(t *Tree, k int) *Layout {
	n := t.N()
	k = max(1, min(k, n))
	parent, order := t.RootAt(0)
	size := subtreeSizes(t, parent, order)
	best := &Layout{Cuts: RangeCuts(n, k)}
	best.BoundaryEdges = countBoundary(t, nil, best.Cuts)
	for _, heavyFirst := range []bool{false, true} {
		consider(t, best, oraclePreorderPerm(t, parent, size, heavyFirst), k)
	}
	consider(t, best, nil, k)
	return best
}

// TestPartitionMatchesOracle requires preorderPerm to equal the
// sort.SliceStable preorder under both child orders, and Partition the
// oracle's layout at every k of TestPartitionProperties, on every partition
// shape. The star, the balanced tree, the caterpillar and the spider give
// nodes many equal-size children, whose order only a stable sort keeps.
func TestPartitionMatchesOracle(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		parent, order := tr.RootAt(0)
		size := subtreeSizes(tr, parent, order)
		for _, heavyFirst := range []bool{false, true} {
			got := preorderPerm(tr, parent, size, heavyFirst)
			if want := oraclePreorderPerm(tr, parent, size, heavyFirst); !slices.Equal(got, want) {
				t.Fatalf("%s heavyFirst=%v: preorder differs from the stable-sort oracle", name, heavyFirst)
			}
		}
		for _, k := range []int{1, 2, 3, 4, 7, 16, tr.N(), tr.N() + 5} {
			if got, want := Partition(tr, k), oraclePartition(tr, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: layout %+v, oracle %+v", name, k, got, want)
			}
		}
	}
}
