package weighted

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dfree"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/landscape"
	"repro/internal/sim"
)

// oracleSolveLogStar is SolveLogStar as it was before the Lemma-52 pruning
// moved onto dfree.Greedy: each domain is pruned by its own map-based BFS
// (oraclePruneDomain) and the flood recomputes the Copy set's depths with a
// second map-based BFS (oracleCopySetDepths). It carries one marked edit.
// It also keeps the input masks and the active-component loop that
// SolveLogStar now reads from a hierarchy.Split (oracleRunActiveComponents).
func oracleSolveLogStar(t *graph.Tree, inputs []NodeInput, p Problem, ids []uint64, scale int) (*Result, error) {
	n := t.N()
	xPrime, err := landscape.EfficiencyXPrime(p.Delta, p.D)
	if err != nil {
		return nil, err
	}
	if xPrime > 1 {
		xPrime = 1
	}
	alphas, err := landscape.Alphas(landscape.RegimeLogStar, xPrime, p.K)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
	}
	active := graph.Mask(t, func(v int) bool { return inputs[v] == InputActive })
	if err := oracleRunActiveComponents(t, active, p, ids, hierarchy.Gammas(scale, alphas), res); err != nil {
		return nil, err
	}
	weight, _ := graph.InducedComponents(t, graph.Mask(t, func(v int) bool { return inputs[v] == InputWeight }))
	for _, comp := range weight {
		if err := oracleSolveWeightComponent35(t, active, p, comp, res); err != nil {
			return nil, err
		}
	}
	if err := repairCopyBudget(t, active, p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// oracleRunActiveComponents is the active-component loop as
// hierarchy.RunAnalyticOn ran it on a mask: components, levels and IDs
// derived afresh.
func oracleRunActiveComponents(t *graph.Tree, active []bool, p Problem, ids []uint64, gammas []int, res *Result) error {
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: p.K, Variant: p.Variant},
		Gammas:  gammas,
	})
	if err != nil {
		return err
	}
	comps, _ := graph.InducedComponents(t, active)
	for _, comp := range comps {
		compIDs := make([]uint64, len(comp.Nodes))
		for i, v := range comp.Nodes {
			compIDs[i] = ids[v]
		}
		ex, err := hierarchy.RunAnalytic(comp.Tree, graph.ComputeLevels(comp.Tree, p.K), sched, compIDs)
		if err != nil {
			return err
		}
		for i, v := range comp.Nodes {
			res.Out[v] = Output{Kind: KindActive, Label: ex.Out[i]}
			res.Rounds[v] = ex.Rounds[i]
		}
	}
	return nil
}

func oracleSolveWeightComponent35(t *graph.Tree, active []bool, p Problem, comp *graph.Component, res *Result) error {
	m := comp.Tree.N()
	isA := make([]bool, m)
	for i, v := range comp.Nodes {
		for _, w := range t.NeighborsRaw(v) {
			if active[w] {
				isA[i] = true
				break
			}
		}
	}
	connect := dfree.ShortPathConnect(comp.Tree, isA, connectRound)
	dec, err := decomp.Compute(comp.Tree, nil, decomp.Options{Gamma: 1, Ell: 3})
	if err != nil {
		return err
	}
	declineRound := func(i int) int { return int(dec.Assign[i].Iter) + connectRound }
	domain := make([]int, m)
	for i := range domain {
		domain[i] = -1
	}
	var sources []int
	for i := 0; i < m; i++ {
		if isA[i] && !connect[i] {
			sources = append(sources, i)
		}
	}
	sort.Ints(sources)
	queue := make([]int, 0, m)
	for _, s := range sources {
		domain[s] = s
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, w := range comp.Tree.NeighborsRaw(i) {
			j := int(w)
			if domain[j] == -1 && !connect[j] {
				domain[j] = domain[i]
				queue = append(queue, j)
			}
		}
	}
	for i, v := range comp.Nodes {
		if connect[i] {
			res.Out[v] = Output{Kind: KindConnect}
			res.Rounds[v] = connectRound
		} else {
			res.Out[v] = Output{Kind: KindDecline}
			res.Rounds[v] = declineRound(i)
		}
	}
	for _, root := range sources {
		copySet := oraclePruneDomain(comp.Tree, domain, root, p.D-2)
		if err := oracleFloodCopySet(t, active, comp, root, copySet, declineRound(root), res); err != nil {
			return err
		}
	}
	return nil
}

func oraclePruneDomain(t *graph.Tree, domain []int, root, budget int) []int {
	if budget < 0 {
		budget = 0
	}
	parent := map[int]int{root: -1}
	order := []int{root}
	queue := []int{root}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, w := range t.NeighborsRaw(i) {
			j := int(w)
			if domain[j] != domain[root] {
				continue
			}
			if _, ok := parent[j]; !ok {
				parent[j] = i
				order = append(order, j)
				queue = append(queue, j)
			}
		}
	}
	size := make(map[int]int, len(order))
	children := make(map[int][]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if p := parent[v]; p >= 0 {
			size[p] += size[v]
		}
	}
	// EDIT: the original appended children[p] inside the backward loop
	// above, which listed them in reverse BFS order and so broke ties
	// between equally heavy children the other way round. Listing them in
	// BFS order, as Algorithm 𝒜's greedy always has, is the one change.
	for _, v := range order[1:] {
		children[parent[v]] = append(children[parent[v]], v)
	}
	copySet := []int{root}
	frontier := []int{root}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		kids := append([]int(nil), children[v]...)
		sort.Slice(kids, func(a, b int) bool { return size[kids[a]] > size[kids[b]] })
		drop := budget
		if drop > len(kids) {
			drop = len(kids)
		}
		for _, c := range kids[drop:] {
			copySet = append(copySet, c)
			frontier = append(frontier, c)
		}
	}
	return copySet
}

func oracleFloodCopySet(t *graph.Tree, active []bool, comp *graph.Component, root int, set []int, base int, res *Result) error {
	origRoot := comp.Nodes[root]
	u := hierarchy.FirstActive(t, origRoot, active, res.Rounds)
	if u == -1 {
		return fmt.Errorf("weighted: copy root %d has no active neighbor", origRoot)
	}
	start := max(base, res.Rounds[u]+1)
	for v, depth := range oracleCopySetDepths(comp.Tree, root, set) {
		orig := comp.Nodes[v]
		res.Out[orig] = Output{Kind: KindCopy, Label: res.Out[u].Label}
		res.Rounds[orig] = start + depth
	}
	return nil
}

func oracleCopySetDepths(t *graph.Tree, root int, set []int) map[int]int {
	inSet := make(map[int]bool, len(set))
	for _, v := range set {
		inSet[v] = true
	}
	depth := map[int]int{root: 0}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if inSet[u] {
				if _, ok := depth[u]; !ok {
					depth[u] = depth[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return depth
}

// checkSolveLogStarAgainstOracle runs SolveLogStar and the oracle on one
// instance; both must fail with the same error or return the same outputs
// and rounds.
func checkSolveLogStarAgainstOracle(t *testing.T, name string, tr *graph.Tree, inputs []NodeInput, p Problem, ids []uint64, scale int) {
	t.Helper()
	got, err := SolveLogStar(mustSplit(t, tr, inputs, p.K), p, ids, scale)
	want, wantErr := oracleSolveLogStar(tr, inputs, p, ids, scale)
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, oracle error %v", name, err, wantErr)
		}
		return
	}
	if !slices.Equal(got.Out, want.Out) {
		for v := range got.Out {
			if got.Out[v] != want.Out[v] {
				t.Fatalf("%s: node %d output %+v, oracle %+v", name, v, got.Out[v], want.Out[v])
			}
		}
	}
	if !slices.Equal(got.Rounds, want.Rounds) {
		for v := range got.Rounds {
			if got.Rounds[v] != want.Rounds[v] {
				t.Fatalf("%s: node %d round %d, oracle %d", name, v, got.Rounds[v], want.Rounds[v])
			}
		}
	}
}

// randomProb35 draws a valid 3½ problem with maximum degree delta.
func randomProb35(rng *rand.Rand, delta int) Problem {
	return Problem{Variant: hierarchy.Coloring35, Delta: delta, D: 3 + rng.Intn(delta-5), K: 2 + rng.Intn(2)}
}

// TestSolveLogStarMatchesOracle compares SolveLogStar with the pre-change
// Lemma-52 path on 800 random mixed trees (Δ ∈ {6, 7, 9, 14}, weight share
// 0.3–0.9, scale 8) and on Definition-25 constructions.
func TestSolveLogStarMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 800; trial++ {
		delta := []int{6, 7, 9, 14}[trial%4]
		p := randomProb35(rng, delta)
		tr, inputs := randomMixedTree(rng, 30+rng.Intn(300), delta, 0.3+0.6*rng.Float64())
		ids := sim.DefaultIDs(tr.N(), uint64(trial+1))
		checkSolveLogStarAgainstOracle(t, fmt.Sprintf("trial %d (Δ=%d d=%d k=%d)", trial, delta, p.D, p.K), tr, inputs, p, ids, 8)
	}
	for _, tc := range []struct {
		delta, d, budget int
		lengths          []int
	}{
		{6, 3, 300, []int{6, 8}},
		{7, 3, 2000, []int{4, 8}},
		{7, 4, 1000, []int{5, 7}},
		{9, 5, 3000, []int{4, 6, 8}},
	} {
		p := prob35(t, tc.delta, tc.d, len(tc.lengths))
		inst, err := BuildInstance(p, tc.lengths, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		ids := sim.DefaultIDs(inst.Tree.N(), 9)
		for _, scale := range []int{2, 8, 64} {
			checkSolveLogStarAgainstOracle(t, fmt.Sprintf("construction Δ=%d d=%d %v scale %d", tc.delta, tc.d, tc.lengths, scale), inst.Tree, inst.Inputs, p, ids, scale)
		}
	}
}

// FuzzSolveLogStarMatchesOracle explores Galton-Watson and ladder trees
// with random weight masks against the pre-change Lemma-52 path.
func FuzzSolveLogStarMatchesOracle(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint16(60*seed), uint8(seed), seed, seed*7, uint8(40+30*seed))
	}
	f.Fuzz(func(t *testing.T, size uint16, shape uint8, seed, maskSeed uint64, share uint8) {
		n := 1 + int(size)%400
		var tr *graph.Tree
		var err error
		if shape%6 == 5 {
			tr, err = graph.BuildLadder(n, seed)
		} else {
			tr, err = graph.BuildGaltonWatson(n, 2+int(shape%6), seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(maskSeed)))
		p := randomProb35(rng, max(tr.MaxDegree(), []int{6, 7, 9, 14}[rng.Intn(4)]))
		inputs := make([]NodeInput, n)
		for v := range inputs {
			if rng.Intn(256) < int(share) {
				inputs[v] = InputWeight
			}
		}
		ids := sim.DefaultIDs(n, seed)
		checkSolveLogStarAgainstOracle(t, fmt.Sprintf("n=%d shape %d seed %d", n, shape, seed), tr, inputs, p, ids, 8)
	})
}
