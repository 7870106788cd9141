package labeling

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/sim"
)

func TestLabelArithmetic(t *testing.T) {
	if Rake(1) >= Compress(1) || Compress(1) >= Rake(2) || Compress(2) >= Rake(3) {
		t.Fatal("label ordering R1 < C1 < R2 < C2 < R3 broken")
	}
	if !Rake(3).IsRake() || Compress(2).IsRake() {
		t.Fatal("IsRake wrong")
	}
	if Rake(3).Index() != 3 || Compress(2).Index() != 2 {
		t.Fatal("Index wrong")
	}
	if Rake(2).String() != "R2" || Compress(1).String() != "C1" {
		t.Fatal("String wrong")
	}
}

// randomTree attaches every node v >= 1 to a uniformly drawn earlier node
// of degree below maxDeg, so degrees stay at most maxDeg (maxDeg >= 2).
func randomTree(rng *rand.Rand, n, maxDeg int) *graph.Tree {
	b := graph.NewBuilder(n)
	b.AddNode()
	deg := make([]int, n)
	for v := 1; v < n; v++ {
		b.AddNode()
		for {
			u := rng.Intn(v)
			if deg[u] < maxDeg {
				if err := b.AddEdge(v, u); err != nil {
					panic(err)
				}
				deg[u]++
				deg[v]++
				break
			}
		}
	}
	return b.MustBuild()
}

func TestSolveAndVerifyOnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []struct {
		name string
		tree *graph.Tree
		k    int
	}{
		{"path-100-k2", mustPath(t, 100), 2},
		{"path-1000-k2", mustPath(t, 1000), 2},
		{"path-1000-k3", mustPath(t, 1000), 3},
		{"balanced", mustBalanced(t, 4, 500), 2},
		{"random-k2", randomTree(rng, 400, 5), 2},
		{"random-k3", randomTree(rng, 400, 5), 3},
		{"caterpillar", mustCaterpillar(t, 50, 3), 2},
		{"single", mustPath(t, 1), 1},
	}
	for _, sh := range shapes {
		sol, err := Solve(sh.tree, sh.k, nil)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if err := Verify(sh.tree, sh.k, nil, sol.Out); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
	}
}

func mustPath(t *testing.T, n int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildPath(n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustBalanced(t *testing.T, delta, n int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildBalanced(delta, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustCaterpillar(t *testing.T, a, b int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildCaterpillar(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSolveWorstCaseIsNPowOneOverK(t *testing.T) {
	// Lemma 65: worst case O(n^{1/k}); the charged rounds are
	// iter·(γ+2) <= k·(γ+2) with γ ≈ n^{1/k}.
	for _, k := range []int{2, 3} {
		n := 20000
		tr := mustPath(t, n)
		sol, err := Solve(tr, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		maxRound := 0
		for _, r := range sol.Rounds {
			if r > maxRound {
				maxRound = r
			}
		}
		bound := int(3 * float64(k+1) * math.Pow(float64(n), 1/float64(k)))
		if maxRound > bound {
			t.Fatalf("k=%d: worst case %d > %d", k, maxRound, bound)
		}
	}
}

func TestSolveWithPinnedNodes(t *testing.T) {
	tr := mustBalanced(t, 5, 300)
	pinned := make([]bool, 300)
	pinned[0] = true
	sol, err := Solve(tr, 2, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, 2, pinned, sol.Out); err != nil {
		t.Fatal(err)
	}
	if sol.Out[0].OutNode != -1 {
		t.Fatal("pinned node must point outside (-1)")
	}
	// All of the pinned root's neighbors must point at it (rule 1).
	for _, w := range tr.Neighbors(0) {
		if sol.Out[w].OutNode != 0 {
			t.Fatalf("neighbor %d of pinned root points at %d", w, sol.Out[w].OutNode)
		}
	}
}

func TestSolveRejectsAdjacentPinned(t *testing.T) {
	tr := mustPath(t, 4)
	pinned := []bool{false, true, true, false}
	if _, err := Solve(tr, 2, pinned); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestVerifyRejectsBrokenLabelings(t *testing.T) {
	tr := mustPath(t, 50)
	sol, err := Solve(tr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Decreasing label along orientation.
	out := append([]Output(nil), sol.Out...)
	for v := range out {
		if u := out[v].OutNode; u >= 0 && out[u].Label > Rake(1) {
			out[u].Label = Rake(1)
			out[v].Label = Rake(2)
			break
		}
	}
	if Verify(tr, 2, nil, out) == nil {
		t.Error("label-decreasing orientation accepted")
	}
	// Unoriented edge at a rake node.
	out = append([]Output(nil), sol.Out...)
	for v := range out {
		if out[v].Label.IsRake() && out[v].OutNode >= 0 {
			u := out[v].OutNode
			if out[u].OutNode != v {
				out[v].OutNode = -1
				break
			}
		}
	}
	if Verify(tr, 2, nil, out) == nil {
		t.Error("unoriented rake edge accepted")
	}
	// Out-of-alphabet label.
	out = append([]Output(nil), sol.Out...)
	out[0].Label = Compress(2) // C_2 does not exist for k=2
	if Verify(tr, 2, nil, out) == nil {
		t.Error("C_k label accepted")
	}
}

func TestBuildAugInstance(t *testing.T) {
	inst, err := BuildAugInstance(2, 5, []int{8, 10}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Tree.MaxDegree() > 5 {
		t.Fatalf("max degree %d > 5", inst.Tree.MaxDegree())
	}
	h, err := graph.BuildHierarchical([]int{8, 10})
	if err != nil {
		t.Fatal(err)
	}
	nCore := h.Tree.N()
	if nCore != 8*10+10 || slices.Contains(inst.Weight[:nCore], true) || slices.Contains(inst.Weight[nCore:], false) {
		t.Fatalf("core is not nodes 0..%d", 8*10+10-1)
	}
	// Every core node at construction level 2 or more hosts exactly one
	// weight tree, whose root has the host as port 0, and no other core
	// node has a weight neighbour.
	for host := range nCore {
		var roots []int
		for _, w := range inst.Tree.NeighborsRaw(host) {
			if inst.Weight[w] {
				roots = append(roots, int(w))
			}
		}
		want := 0
		if h.ConsLevel[host] >= 2 {
			want = 1
		}
		if len(roots) != want {
			t.Fatalf("core node %d (level %d) has weight neighbours %v, want %d",
				host, h.ConsLevel[host], roots, want)
		}
		if want == 1 && int(inst.Tree.NeighborsRaw(roots[0])[0]) != host {
			t.Fatalf("weight root %d: port 0 is not its host %d", roots[0], host)
		}
	}
}

// weightRoots returns the roots of inst's weight trees in ascending order:
// the weight nodes whose port-0 neighbour, their host, is a core node.
func weightRoots(inst *AugInstance) []int {
	var roots []int
	for v, w := range inst.Weight {
		if w && !inst.Weight[inst.Tree.NeighborsRaw(v)[0]] {
			roots = append(roots, v)
		}
	}
	return roots
}

// mustAugSplit returns the Split of tr whose active nodes are the ones
// weight leaves unmarked, at depth k, or fails the test.
func mustAugSplit(t testing.TB, tr *graph.Tree, weight []bool, k int) *hierarchy.Split {
	t.Helper()
	s, err := hierarchy.NewSplit(tr, graph.Mask(tr, func(v int) bool { return !weight[v] }), k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveAugOnConstruction(t *testing.T) {
	inst, err := BuildAugInstance(2, 5, []int{10, 12}, 500)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 3)
	split := mustAugSplit(t, inst.Tree, inst.Weight, inst.K)
	res, err := SolveAug(split, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAug(split, res.Out); err != nil {
		t.Fatal(err)
	}
}

func TestLemma68LinearCopyFraction(t *testing.T) {
	// Lemma 68: Ω(w) of a balanced Δ-regular weight tree attached to an
	// active node must copy its output (efficiency x = 1). Count weight
	// nodes whose secondary equals their root's copied label.
	inst, err := BuildAugInstance(2, 5, []int{6, 8}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 7)
	split := mustAugSplit(t, inst.Tree, inst.Weight, inst.K)
	res, err := SolveAug(split, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAug(split, res.Out); err != nil {
		t.Fatal(err)
	}
	weightTotal, copying := 0, 0
	for v := range res.Out {
		if !inst.Weight[v] {
			continue
		}
		weightTotal++
		if !res.Out[v].Secondary.Decline {
			copying++
		}
	}
	if weightTotal == 0 {
		t.Fatal("no weight nodes")
	}
	frac := float64(copying) / float64(weightTotal)
	if frac < 0.5 {
		t.Fatalf("copying fraction %.3f, want Ω(1) (>= 0.5 on balanced trees)", frac)
	}
}

func TestLemma69NodeAveragedScaling(t *testing.T) {
	// Lemma 69: node-averaged complexity Θ(n^{1/k}) for k = 2 — the Θ(√n)
	// point of the landscape. Fit the slope over a small sweep.
	var ns, avgs []float64
	for _, target := range []int{2000, 8000, 32000} {
		side := int(math.Sqrt(float64(target) / 2))
		inst, err := BuildAugInstance(2, 5, []int{side, side}, target/2)
		if err != nil {
			t.Fatal(err)
		}
		ids := sim.DefaultIDs(inst.Tree.N(), 5)
		split := mustAugSplit(t, inst.Tree, inst.Weight, inst.K)
		res, err := SolveAug(split, ids)
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, float64(inst.Tree.N()))
		avgs = append(avgs, res.NodeAveraged())
	}
	slope := (math.Log(avgs[2]) - math.Log(avgs[0])) / (math.Log(ns[2]) - math.Log(ns[0]))
	if slope < 0.3 || slope > 0.7 {
		t.Fatalf("fitted slope %.3f, want ~0.5 (avgs %v at ns %v)", slope, avgs, ns)
	}
}

func TestVerifyAugRejectsBrokenOutputs(t *testing.T) {
	inst, err := BuildAugInstance(2, 5, []int{6, 8}, 200)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 2)
	split := mustAugSplit(t, inst.Tree, inst.Weight, inst.K)
	res, err := SolveAug(split, ids)
	if err != nil {
		t.Fatal(err)
	}
	// Root copying the wrong label.
	out := append([]AugOutput(nil), res.Out...)
	for _, root := range weightRoots(inst) {
		sec := out[root].Secondary
		if !sec.Decline {
			wrong := sec
			if wrong.Label == 0 {
				continue
			}
			wrong.Label++
			out[root].Secondary = wrong
			break
		}
	}
	if VerifyAug(split, out) == nil {
		t.Error("wrong root secondary accepted")
	}
	// Rake node originating Decline: on an all-weight balanced tree the
	// last survivor, node 0, starts a label; declining everywhere makes it
	// originate Decline.
	tr := mustBalanced(t, 4, 40)
	weight := make([]bool, tr.N())
	for v := range weight {
		weight[v] = true
	}
	all := mustAugSplit(t, tr, weight, 2)
	res, err = SolveAug(all, sim.DefaultIDs(tr.N(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAug(all, res.Out); err != nil {
		t.Fatal(err)
	}
	for v := range res.Out {
		res.Out[v].Secondary = Secondary{Decline: true}
	}
	err = VerifyAug(all, res.Out)
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "rake node 0 originates Decline") {
		t.Errorf("all-Decline labeling: got %v, want rake node 0 originating Decline", err)
	}
}

// TestVerifyAugTotalOnGarbage corrupts a few nodes of a valid labeling per
// trial, weight roots among them: each gets an OutNode of -5, -1, n, n+7, a
// random node or a neighbor, and half of them also random labels and
// secondaries. VerifyAug must never panic, and must return ErrInvalid
// whenever an OutNode lies outside [-1, n).
func TestVerifyAugTotalOnGarbage(t *testing.T) {
	inst, err := BuildAugInstance(2, 5, []int{6, 8}, 200)
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Tree
	n := tr.N()
	split := mustAugSplit(t, tr, inst.Weight, inst.K)
	res, err := SolveAug(split, sim.DefaultIDs(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	roots := weightRoots(inst)
	rng := rand.New(rand.NewSource(29))
	outside := 0
	for trial := 0; trial < 400; trial++ {
		out := append([]AugOutput(nil), res.Out...)
		for range 1 + rng.Intn(3) {
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v = roots[rng.Intn(len(roots))]
			}
			nbrs := tr.NeighborsRaw(v)
			targets := []int{-5, -1, n, n + 7, rng.Intn(n), int(nbrs[rng.Intn(len(nbrs))])}
			out[v].OutNode = targets[rng.Intn(len(targets))]
			if rng.Intn(2) == 0 {
				out[v].Active = hierarchy.Label(rng.Intn(9))
				out[v].WLabel = Label(rng.Intn(7))
				out[v].Secondary = Secondary{Label: hierarchy.Label(rng.Intn(9)), Decline: rng.Intn(2) == 0}
			}
		}
		err := VerifyAug(split, out) // must not panic
		if slices.ContainsFunc(out, func(o AugOutput) bool { return o.OutNode < -1 || o.OutNode >= n }) {
			outside++
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("trial %d: an OutNode outside [-1, n) gave %v, want ErrInvalid", trial, err)
			}
		}
	}
	if outside == 0 {
		t.Fatal("no trial drew an OutNode outside [-1, n)")
	}
}

// TestSolveAugOutputsPassVerifyAug: off the paper's construction SolveAug
// may report ErrInfeasible, but every labeling it returns must pass
// VerifyAug. Inputs are random Galton-Watson trees and ladders with a weight
// mask of random density, at k = 2 and 3.
func TestSolveAugOutputsPassVerifyAug(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	runs, infeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 50 + rng.Intn(2001)
		seed := rng.Uint64()
		tr, err := graph.BuildLadder(n, seed)
		if trial%2 == 0 {
			tr, err = graph.BuildGaltonWatson(n, 3+trial%4, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		density := rng.Float64()
		weight := make([]bool, n)
		for v := range weight {
			weight[v] = rng.Float64() < density
		}
		for _, k := range []int{2, 3} {
			runs++
			split := mustAugSplit(t, tr, weight, k)
			res, err := SolveAug(split, sim.DefaultIDs(n, seed))
			if errors.Is(err, ErrInfeasible) {
				infeasible++
				continue
			}
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if err := VerifyAug(split, res.Out); err != nil {
				t.Fatalf("trial %d k=%d (n=%d, density %.2f): %v", trial, k, n, density, err)
			}
		}
	}
	t.Logf("%d of %d runs infeasible", infeasible, runs)
	if infeasible == runs {
		t.Fatal("every run was infeasible; the test checks nothing")
	}
}

func TestAugCopyNodesWaitForActive(t *testing.T) {
	inst, err := BuildAugInstance(2, 5, []int{8, 10}, 600)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 9)
	split := mustAugSplit(t, inst.Tree, inst.Weight, inst.K)
	res, err := SolveAug(split, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range weightRoots(inst) {
		host := int(inst.Tree.NeighborsRaw(root)[0])
		if res.Rounds[root] <= res.Rounds[host] {
			t.Fatalf("weight root %d (T=%d) did not wait for host %d (T=%d)",
				root, res.Rounds[root], host, res.Rounds[host])
		}
	}
}

func TestSolveWithScatteredPinnedOnRandomTrees(t *testing.T) {
	// Pinned nodes anchor the peeling; a short (< 4-node) degree-2 chain
	// between two pinned nodes is neither rakeable nor compressible and the
	// anchors' out-edges are reserved for their active neighbors, so dense
	// pinning makes instances genuinely infeasible (the solver reports
	// ErrInfeasible). Sparse, far-apart pins — the shape the weight-
	// augmented construction produces — must succeed.
	rng := rand.New(rand.NewSource(41))
	solved := 0
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(300)
		tr := randomTree(rng, n, 5)
		pinned := make([]bool, n)
		v1 := rng.Intn(n)
		pinned[v1] = true
		dist := tr.BFS(v1)
		for tries := 0; tries < 20; tries++ {
			v2 := rng.Intn(n)
			if dist[v2] >= 8 {
				pinned[v2] = true
				break
			}
		}
		k := 3
		sol, err := Solve(tr, k, pinned)
		if errors.Is(err, ErrInfeasible) {
			// Pinned anchors legitimately slow the peeling below the
			// Lemma 65 budget on adversarial shapes; the solver must report
			// that rather than emit an invalid labeling.
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solved++
		if err := Verify(tr, k, pinned, sol.Out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for v := 0; v < n; v++ {
			if pinned[v] && sol.Out[v].OutNode != -1 {
				t.Fatalf("trial %d: pinned node %d points inside", trial, v)
			}
		}
	}
	if solved < 5 {
		t.Fatalf("only %d/10 pinned trials solvable; expected most to succeed", solved)
	}
}

func TestSeqStrictlyIncreasesAlongOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := randomTree(rng, 500, 4)
	sol, err := Solve(tr, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, tr.N())
	for i, v := range sol.Order {
		pos[v] = i
	}
	for v := 0; v < tr.N(); v++ {
		if u := sol.Out[v].OutNode; u >= 0 && pos[u] <= pos[v] {
			t.Fatalf("orientation %d->%d does not go later in Order (%d -> %d)",
				v, u, pos[v], pos[u])
		}
	}
}
