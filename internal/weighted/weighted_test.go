package weighted

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/landscape"
	"repro/internal/sim"
)

func prob25(t *testing.T, delta, d, k int) Problem {
	t.Helper()
	p := Problem{Variant: hierarchy.Coloring25, Delta: delta, D: d, K: k}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func prob35(t *testing.T, delta, d, k int) Problem {
	t.Helper()
	p := Problem{Variant: hierarchy.Coloring35, Delta: delta, D: d, K: k}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// mustSplit returns NewSplit(tr, inputs, k) or fails the test.
func mustSplit(t testing.TB, tr *graph.Tree, inputs []NodeInput, k int) *hierarchy.Split {
	t.Helper()
	s, err := NewSplit(tr, inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildInstanceShape(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{10, 12}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Tree.MaxDegree() > p.Delta {
		t.Fatalf("max degree %d > Δ=%d", inst.Tree.MaxDegree(), p.Delta)
	}
	nActive := inst.Hier.Tree.N()
	if nActive != 10*12+12 {
		t.Fatalf("active core %d nodes, want 132", nActive)
	}
	weight := 0
	for _, in := range inst.Inputs {
		if in == InputWeight {
			weight++
		}
	}
	if weight != inst.Tree.N()-nActive {
		t.Fatalf("weight count inconsistent")
	}
	if weight < 400 {
		t.Fatalf("only %d weight nodes for budget 500", weight)
	}
	// Every core node at construction level 2 or more hosts exactly one
	// weight tree, whose root has the host as port 0, and no other core
	// node has a weight neighbour.
	for host := range nActive {
		var roots []int
		for _, w := range inst.Tree.NeighborsRaw(host) {
			if inst.Inputs[w] == InputWeight {
				roots = append(roots, int(w))
			}
		}
		want := 0
		if inst.Hier.ConsLevel[host] >= 2 {
			want = 1
		}
		if len(roots) != want {
			t.Fatalf("core node %d (level %d) has weight neighbours %v, want %d",
				host, inst.Hier.ConsLevel[host], roots, want)
		}
		if want == 1 && int(inst.Tree.NeighborsRaw(roots[0])[0]) != host {
			t.Fatalf("weight root %d: port 0 is not its host %d", roots[0], host)
		}
	}
}

// weightRoots returns the roots of inst's weight trees in ascending order:
// the weight nodes whose port-0 neighbour, their host, is a core node.
func weightRoots(inst *Instance) []int {
	nCore := inst.Hier.Tree.N()
	var roots []int
	for v := nCore; v < inst.Tree.N(); v++ {
		if int(inst.Tree.NeighborsRaw(v)[0]) < nCore {
			roots = append(roots, v)
		}
	}
	return roots
}

func TestBuildInstanceRejectsBadParams(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	if _, err := BuildInstance(p, []int{10}, 100); err == nil {
		t.Error("wrong lengths accepted")
	}
	p1 := Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 1}
	if _, err := BuildInstance(p1, []int{10}, 100); err == nil {
		t.Error("k=1 construction accepted")
	}
	bad := Problem{Variant: hierarchy.Coloring25, Delta: 4, D: 2, K: 2}
	if _, err := BuildInstance(bad, []int{4, 4}, 10); err == nil {
		t.Error("Δ < d+3 accepted")
	}
}

func TestSolvePolyOnConstruction(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{12, 20}, 800)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 3)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolvePoly(split, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(split, res.Out); err != nil {
		t.Fatal(err)
	}
	if res.NodeAveraged() <= 0 {
		t.Fatal("node-averaged should be positive")
	}
	// Copy nodes exist: the construction is built to force copying.
	copies := 0
	for _, o := range res.Out {
		if o.Kind == KindCopy {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("no Copy outputs on the weighted construction")
	}
}

func TestSolvePolyScalingMatchesAlpha1(t *testing.T) {
	// E-T2T3 smoke check: the measured node-averaged complexity of A_poly on
	// the Definition-25 construction grows like n^{α1} — compare the fitted
	// slope over a small sweep with the theory value within a loose band.
	// (The full sweep lives in the benchmark harness.)
	p := prob25(t, 5, 2, 2)
	x, err := landscape.EfficiencyX(p.Delta, p.D)
	if err != nil {
		t.Fatal(err)
	}
	alpha1, err := landscape.Alpha1Poly(x, p.K)
	if err != nil {
		t.Fatal(err)
	}
	alphas, err := landscape.Alphas(landscape.RegimePolynomial, x, p.K)
	if err != nil {
		t.Fatal(err)
	}
	var ns, avgs []float64
	for _, target := range []int{3000, 12000, 48000} {
		// ℓ_1 = n^{α1}, ℓ_2 = n^{1−α1}; weight n/k per level.
		l1 := int(math.Pow(float64(target), alphas[0]))
		l2 := target / (2 * l1)
		inst, err := BuildInstance(p, []int{l1, l2}, target/2)
		if err != nil {
			t.Fatal(err)
		}
		ids := sim.DefaultIDs(inst.Tree.N(), 9)
		split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
		res, err := SolvePoly(split, p, ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(split, res.Out); err != nil {
			t.Fatal(err)
		}
		ns = append(ns, float64(inst.Tree.N()))
		avgs = append(avgs, res.NodeAveraged())
	}
	slope := (math.Log(avgs[len(avgs)-1]) - math.Log(avgs[0])) /
		(math.Log(ns[len(ns)-1]) - math.Log(ns[0]))
	if slope < alpha1-0.2 || slope > alpha1+0.25 {
		t.Fatalf("fitted slope %.3f not near α1 = %.3f (avgs %v at ns %v)",
			slope, alpha1, avgs, ns)
	}
}

func TestSolveLogStarOnConstruction(t *testing.T) {
	p := prob35(t, 7, 3, 2)
	inst, err := BuildInstance(p, []int{8, 30}, 600)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 4)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolveLogStar(split, p, ids, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(split, res.Out); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, o := range res.Out {
		if o.Kind == KindCopy {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("no Copy outputs")
	}
}

func TestSolveLogStarRequiresD3(t *testing.T) {
	p := prob35(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{4, 6}, 50)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 1)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	if _, err := SolveLogStar(split, p, ids, 8); err == nil {
		t.Fatal("d=2 accepted by SolveLogStar")
	}
}

func TestSolveLogStarWeightSideIsCheap(t *testing.T) {
	// Lemma 56 shape: the weight nodes that never join a Copy set terminate
	// in O(1) node-averaged rounds (geometric decay of the peeling).
	p := prob35(t, 7, 3, 2)
	inst, err := BuildInstance(p, []int{8, 20}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 11)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolveLogStar(split, p, ids, 8)
	if err != nil {
		t.Fatal(err)
	}
	var declSum, declCount float64
	for v, o := range res.Out {
		if o.Kind == KindDecline {
			declSum += float64(res.Rounds[v])
			declCount++
		}
	}
	if declCount == 0 {
		t.Fatal("no declining weight nodes")
	}
	if avg := declSum / declCount; avg > 20 {
		t.Fatalf("average Decline round %.2f, want O(1)-ish", avg)
	}
}

func randomMixedTree(rng *rand.Rand, n, maxDeg int, weightFrac float64) (*graph.Tree, []NodeInput) {
	b := graph.NewBuilder(n)
	b.AddNode()
	deg := make([]int, n)
	for v := 1; v < n; v++ {
		b.AddNode()
		for {
			u := rng.Intn(v)
			if deg[u] < maxDeg-1 {
				if err := b.AddEdge(v, u); err != nil {
					panic(err)
				}
				deg[u]++
				deg[v]++
				break
			}
		}
	}
	tr := b.MustBuild()
	inputs := make([]NodeInput, n)
	for v := range inputs {
		if rng.Float64() < weightFrac {
			inputs[v] = InputWeight
		}
	}
	return tr, inputs
}

func TestSolvePolyOnRandomMixedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := prob25(t, 6, 2, 2)
	for trial := 0; trial < 10; trial++ {
		tr, inputs := randomMixedTree(rng, 80+rng.Intn(300), p.Delta, 0.5)
		ids := sim.DefaultIDs(tr.N(), uint64(trial+1))
		split := mustSplit(t, tr, inputs, p.K)
		res, err := SolvePoly(split, p, ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Verify(split, res.Out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveLogStarOnRandomMixedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := prob35(t, 7, 3, 2)
	for trial := 0; trial < 10; trial++ {
		tr, inputs := randomMixedTree(rng, 80+rng.Intn(300), p.Delta, 0.5)
		ids := sim.DefaultIDs(tr.N(), uint64(trial+100))
		split := mustSplit(t, tr, inputs, p.K)
		res, err := SolveLogStar(split, p, ids, 8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Verify(split, res.Out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestVerifyRejectsBrokenWeightedOutputs(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{6, 8}, 200)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 2)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolvePoly(split, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(split, res.Out); err != nil {
		t.Fatal(err)
	}
	// Weight root declining next to active violates property 2.
	out := append([]Output(nil), res.Out...)
	roots := weightRoots(inst)
	out[roots[0]] = Output{Kind: KindDecline}
	if p.Verify(split, out) == nil {
		t.Error("declining A-weight node accepted")
	}
	// Copy with wrong secondary violates property 5.
	out = append([]Output(nil), res.Out...)
	for _, root := range roots {
		if out[root].Kind == KindCopy {
			wrong := hierarchy.LabelW
			if out[root].Label == hierarchy.LabelW {
				wrong = hierarchy.LabelB
			}
			out[root] = Output{Kind: KindCopy, Label: wrong}
			if p.Verify(split, out) == nil {
				t.Error("mismatched secondary accepted")
			}
			break
		}
	}
	// Active node with weight-kind output.
	out = append([]Output(nil), res.Out...)
	out[0] = Output{Kind: KindDecline}
	if p.Verify(split, out) == nil {
		t.Error("weight-kind output on active node accepted")
	}
	// A Split at another depth is refused, not verified at its levels.
	other := mustSplit(t, inst.Tree, inst.Inputs, p.K+1)
	if p.Verify(other, res.Out) == nil {
		t.Error("Verify accepted a split at depth k+1")
	}
	if _, err := SolvePoly(other, p, ids); err == nil {
		t.Error("SolvePoly ran on a split at depth k+1")
	}
	// A node whose input is neither Active nor Weight: Verify reads the
	// inputs through a Split, and NewSplit rejects the instance.
	leaf := inst.Tree.N() - 1
	if inst.Inputs[leaf] != InputWeight || inst.Tree.Degree(leaf) != 1 {
		t.Fatalf("node %d is not a weight leaf", leaf)
	}
	inputs := slices.Clone(inst.Inputs)
	inputs[leaf] = 7
	if _, err := NewSplit(inst.Tree, inputs, p.K); err == nil || !strings.Contains(err.Error(), "unknown input NodeInput(7)") {
		t.Errorf("input 7 on weight leaf %d: NewSplit error %v", leaf, err)
	}
}

func TestCopyWaitsForActive(t *testing.T) {
	// The whole point of the weight machinery: Copy nodes terminate after
	// the active node they copy from.
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{10, 14}, 600)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 8)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolvePoly(split, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, root := range weightRoots(inst) {
		host := int(inst.Tree.NeighborsRaw(root)[0])
		if res.Out[root].Kind != KindCopy {
			continue
		}
		if res.Rounds[root] <= res.Rounds[host] {
			// The root may copy from a different active neighbor, but the
			// host is its only active neighbor in this construction.
			t.Fatalf("copy root %d terminated at %d, host %d at %d",
				root, res.Rounds[root], host, res.Rounds[host])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no copy roots to check")
	}
}
