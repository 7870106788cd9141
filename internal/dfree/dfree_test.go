package dfree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// buildWeightTree returns a balanced Δ-regular weight tree in the Lemma 23
// shape: node 0 is the A-node (the weight node that sits next to the active
// node) and is the root of the balanced tree, with Δ−1 children (its Δ-th
// port would lead to the active node, which is not part of the d-free
// instance).
func buildWeightTree(t *testing.T, delta, size int) (*graph.Tree, []Input) {
	t.Helper()
	tr, err := graph.BuildBalanced(delta, size)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, size)
	inputs[0] = InputA
	return tr, inputs
}

func TestSolveSingleANode(t *testing.T) {
	tr, inputs := buildWeightTree(t, 5, 200)
	sol, err := Solve(tr, inputs, 2, new(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, inputs, 2, sol.Out); err != nil {
		t.Fatal(err)
	}
	if sol.Out[0] != OutCopy {
		t.Fatalf("A-node output %v, want Copy", sol.Out[0])
	}
	if len(sol.CopySets) != 1 {
		t.Fatalf("%d copy sets, want 1", len(sol.CopySets))
	}
}

func TestSolveRoundsAreLogarithmic(t *testing.T) {
	for _, n := range []int{10, 100, 10000} {
		tr, inputs := buildWeightTree(t, 4, n)
		sol, err := Solve(tr, inputs, 2, new(Greedy))
		if err != nil {
			t.Fatal(err)
		}
		want := 3*Radius(n+1, 2) + 3
		if sol.Rounds != want {
			t.Fatalf("n=%d: rounds=%d, want %d", n, sol.Rounds, want)
		}
		if sol.Rounds > 3*int(math.Ceil(math.Log2(float64(n+1))))+3 {
			t.Fatalf("n=%d: rounds=%d not O(log n)", n, sol.Rounds)
		}
	}
}

func TestLemma40CopySetBound(t *testing.T) {
	// |Copy| <= 6 * |ball|^x with x = log(Δ−1−d)/log(Δ−1). We verify the
	// bound against the whole component size (>= |Û|, so the bound is only
	// harder to meet on the exponent side; we allow the constant 6 plus the
	// +1 root slack).
	cases := []struct{ delta, d, size int }{
		{5, 2, 500}, {5, 2, 5000}, {6, 2, 2000}, {7, 3, 3000}, {9, 5, 4000},
	}
	for _, tc := range cases {
		tr, inputs := buildWeightTree(t, tc.delta, tc.size)
		sol, err := Solve(tr, inputs, tc.d, new(Greedy))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tr, inputs, tc.d, sol.Out); err != nil {
			t.Fatal(err)
		}
		copies := 0
		for _, o := range sol.Out {
			if o == OutCopy {
				copies++
			}
		}
		x := math.Log(float64(tc.delta-1-tc.d)) / math.Log(float64(tc.delta-1))
		bound := 6*math.Pow(float64(tr.N()), x) + 1
		if float64(copies) > bound {
			t.Fatalf("Δ=%d d=%d n=%d: %d copies > bound %.1f (x=%.3f)",
				tc.delta, tc.d, tr.N(), copies, bound, x)
		}
		if copies < 1 {
			t.Fatal("no copies at all")
		}
	}
}

func TestCopySetGrowsWithWeight(t *testing.T) {
	// Lemma 23 lower-bound shape: more weight forces more copies.
	var prev int
	for _, size := range []int{100, 1000, 10000} {
		tr, inputs := buildWeightTree(t, 5, size)
		sol, err := Solve(tr, inputs, 2, new(Greedy))
		if err != nil {
			t.Fatal(err)
		}
		copies := 0
		for _, o := range sol.Out {
			if o == OutCopy {
				copies++
			}
		}
		if copies <= prev {
			t.Fatalf("copy count not growing: size=%d copies=%d prev=%d", size, copies, prev)
		}
		prev = copies
	}
}

func TestTwoCloseANodesConnect(t *testing.T) {
	// Path with A-nodes at both ends, short enough to Connect:
	// r = Radius(7, 2) = 2, so the Connect limit is 2r+2 = 6 = path length.
	n := 7
	tr, err := graph.BuildPath(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, n)
	inputs[0] = InputA
	inputs[n-1] = InputA
	sol, err := Solve(tr, inputs, 2, new(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, inputs, 2, sol.Out); err != nil {
		t.Fatal(err)
	}
	for v, o := range sol.Out {
		if o != OutConnect {
			t.Fatalf("node %d output %v, want Connect (path length %d <= 2r+2)", v, o, n-1)
		}
	}
}

func TestTwoFarANodesDontConnect(t *testing.T) {
	// Path long enough that the A-endpoints are beyond the Connect limit.
	n := 4096
	tr, err := graph.BuildPath(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, n)
	inputs[0] = InputA
	inputs[n-1] = InputA
	d := 2
	sol, err := Solve(tr, inputs, d, new(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, inputs, d, sol.Out); err != nil {
		t.Fatal(err)
	}
	if sol.Out[0] != OutCopy || sol.Out[n-1] != OutCopy {
		t.Fatalf("far A-nodes output (%v, %v), want Copy", sol.Out[0], sol.Out[n-1])
	}
	if len(sol.CopySets) != 2 || sol.CopySets[0].Nodes[0] != 0 || sol.CopySets[1].Nodes[0] != n-1 {
		t.Fatalf("copy sets %v, want one rooted at 0, then one at %d", sol.CopySets, n-1)
	}
	// Observation 39: the two Copy components are disjoint and separated.
	inSet := make(map[int]int)
	for _, set := range sol.CopySets {
		root := set.Nodes[0]
		for _, v := range set.Nodes {
			if other, ok := inSet[v]; ok && other != root {
				t.Fatalf("node %d in two copy sets", v)
			}
			inSet[v] = root
		}
	}
}

func TestObservation39OneANodePerCopyComponent(t *testing.T) {
	// Random trees with several A-nodes.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(400)
		b := graph.NewBuilder(n)
		b.AddNode()
		deg := make([]int, n)
		for v := 1; v < n; v++ {
			b.AddNode()
			for {
				u := rng.Intn(v)
				if deg[u] < 5 {
					if err := b.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
					deg[u]++
					deg[v]++
					break
				}
			}
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]Input, n)
		for i := 0; i < 4; i++ {
			inputs[rng.Intn(n)] = InputA
		}
		d := 2 + rng.Intn(3)
		sol, err := Solve(tr, inputs, d, new(Greedy))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tr, inputs, d, sol.Out); err != nil {
			t.Fatalf("trial %d (d=%d): %v", trial, d, err)
		}
		// Each maximal Copy component contains exactly one A-node.
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = sol.Out[v] == OutCopy
		}
		copySets, _ := graph.InducedComponents(tr, mask)
		for _, comp := range copySets {
			aCount := 0
			for _, v := range comp.Nodes {
				if inputs[v] == InputA {
					aCount++
				}
			}
			if aCount != 1 {
				t.Fatalf("trial %d: copy component with %d A-nodes", trial, aCount)
			}
		}
	}
}

func TestVerifyRejectsBrokenOutputs(t *testing.T) {
	tr, inputs := buildWeightTree(t, 5, 50)
	sol, err := Solve(tr, inputs, 2, new(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	// A-node declining violates property 3.
	out := append([]Out(nil), sol.Out...)
	out[0] = OutDecline
	if Verify(tr, inputs, 2, out) == nil {
		t.Error("declining A-node accepted")
	}
	// Lone Connect violates property 1.
	out = append([]Out(nil), sol.Out...)
	out[len(out)-1] = OutConnect
	if Verify(tr, inputs, 2, out) == nil {
		t.Error("lone Connect accepted")
	}
	// Copy surrounded by > d declines violates property 2: the root of the
	// Δ=5 tree has 4 > d = 2 children; declining them all breaks its Copy.
	out = append([]Out(nil), sol.Out...)
	for _, w := range tr.Neighbors(0) {
		out[w] = OutDecline
	}
	out[0] = OutCopy
	if Verify(tr, inputs, 2, out) == nil {
		t.Error("over-declined Copy accepted")
	}
}

func TestRadius(t *testing.T) {
	if Radius(1, 2) != 1 {
		t.Fatal("Radius(1) should be 1")
	}
	if r := Radius(27, 2); r != 3 {
		t.Fatalf("Radius(27, d=2) = %d, want 3 (log_3 27)", r)
	}
	if r := Radius(1000, 1); r != 10 {
		t.Fatalf("Radius(1000, d=1) = %d, want 10 (log_2 1000)", r)
	}
}

func TestSolveRejectsBadArgs(t *testing.T) {
	tr, err := graph.BuildPath(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(tr, []Input{InputA}, 2, new(Greedy)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Solve(tr, make([]Input, 3), 0, new(Greedy)); err == nil {
		t.Error("d=0 accepted")
	}
}

// TestGreedyProperties states Lemma 37's greedy 𝒜* without an oracle and
// checks every Copy set Greedy.Grow returns on random trees, from every
// root, in ball mode (in == nil, small limit; Algorithm 𝒜) and domain mode
// (a random region, limit n; Lemma 52) and their mix: the root copies; the
// set is connected through region parents; a Copy node below distance
// limit−1 with c children in the region has exactly max(0, c−budget) Copy
// children; no declined child's subtree in the region is smaller than a
// copied sibling's; each depth is the tree distance from the root; and no
// Copy node sits at distance limit.
func TestGreedyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var trees []*graph.Tree
	for _, c := range []int{2, 3, 5, 20} {
		tr, err := graph.BuildGaltonWatson(70, c, uint64(c))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	lad, err := graph.BuildLadder(70, 3)
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, lad)
	var g Greedy
	for ti, tr := range trees {
		n := tr.N()
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = rng.Float64() < 0.7
		}
		for root := 0; root < n; root++ {
			dist := tr.BFS(root)
			for _, in := range []func(v int) bool{nil, func(v int) bool { return mask[v] }} {
				// The region rooted at root: parent, children and subtree sizes.
				parent := map[int]int{root: -1}
				order := []int{root}
				for i := 0; i < len(order); i++ {
					v := order[i]
					for _, w := range tr.NeighborsRaw(v) {
						u := int(w)
						if _, ok := parent[u]; !ok && (in == nil || in(u)) {
							parent[u] = v
							order = append(order, u)
						}
					}
				}
				for _, limit := range []int{1, 2, 3, 5, n} {
					children := map[int][]int{}
					size := map[int]int{}
					for i := len(order) - 1; i >= 0; i-- {
						v := order[i]
						if dist[v] > limit {
							continue
						}
						size[v]++
						if p := parent[v]; p >= 0 {
							size[p] += size[v]
							children[p] = append(children[p], v)
						}
					}
					for budget := 0; budget <= 3; budget++ {
						set := g.Grow(tr, root, budget, limit, in)
						where := fmt.Sprintf("tree %d root %d limit %d budget %d in=%v", ti, root, limit, budget, in != nil)
						if len(set.Nodes) == 0 || set.Nodes[0] != root || len(set.Depth) != len(set.Nodes) {
							t.Fatalf("%s: set %v does not start at the root", where, set)
						}
						copies := map[int]bool{}
						for i, v := range set.Nodes {
							if _, ok := size[v]; !ok || copies[v] {
								t.Fatalf("%s: node %d outside the region or repeated", where, v)
							}
							if set.Depth[i] != dist[v] {
								t.Fatalf("%s: node %d depth %d, tree distance %d", where, v, set.Depth[i], dist[v])
							}
							if v != root && (dist[v] >= limit || !copies[parent[v]]) {
								t.Fatalf("%s: Copy node %d at distance %d, parent copies: %v", where, v, dist[v], copies[parent[v]])
							}
							copies[v] = true
						}
						for _, v := range set.Nodes {
							if dist[v] >= limit-1 {
								continue
							}
							kids := children[v]
							minDeclined, maxCopied, copied := n+1, 0, 0
							for _, c := range kids {
								if copies[c] {
									copied++
									maxCopied = max(maxCopied, size[c])
								} else {
									minDeclined = min(minDeclined, size[c])
								}
							}
							if copied != max(0, len(kids)-budget) {
								t.Fatalf("%s: Copy node %d has %d Copy children of %d", where, v, copied, len(kids))
							}
							if minDeclined < maxCopied {
								t.Fatalf("%s: Copy node %d declines a child of size %d but copies one of size %d", where, v, minDeclined, maxCopied)
							}
						}
					}
				}
			}
		}
	}
}
