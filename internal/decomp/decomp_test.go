package decomp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func randomTree(rng *rand.Rand, n, maxDeg int) *graph.Tree {
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
	return b.MustBuild()
}

func checkDecomposition(t *testing.T, tr *graph.Tree, d *Decomposition, opts Options) {
	t.Helper()
	higher := func(u, v int) bool {
		// Is u in a strictly "later" position than v (Definition 75 order)?
		au, av := d.Assign[u], d.Assign[v]
		if au.Iter != av.Iter {
			return au.Iter > av.Iter
		}
		if au.Kind != av.Kind {
			return au.Kind == KindCompress // compress i comes after all rakes of i
		}
		return au.Sub > av.Sub
	}
	for v := 0; v < tr.N(); v++ {
		a := d.Assign[v]
		if a.Kind == KindNone {
			t.Fatalf("node %d unassigned", v)
		}
		if a.Kind == KindRake {
			// Property 3 (Definition 71): each rake-sublayer node has at
			// most one neighbor in a higher layer/sublayer, and sublayer
			// components are isolated nodes (no same-sublayer neighbor).
			higherCount := 0
			for _, w := range tr.NeighborsRaw(v) {
				u := int(w)
				if d.Assign[u] == a {
					t.Fatalf("rake nodes %d and %d adjacent in the same sublayer", v, u)
				}
				if higher(u, v) {
					higherCount++
				}
			}
			if higherCount > 1 {
				t.Fatalf("rake node %d has %d higher neighbors", v, higherCount)
			}
		}
	}
	// Compress paths: consecutive nodes adjacent; length >= ell (and <= 2ell
	// when splitting); endpoints have exactly one higher neighbor; interior
	// nodes none.
	for id, path := range d.Paths {
		if len(path) < opts.Ell {
			t.Fatalf("compress path %d has %d < ℓ=%d nodes", id, len(path), opts.Ell)
		}
		if opts.SplitPaths && len(path) > 2*opts.Ell {
			t.Fatalf("split compress path %d has %d > 2ℓ nodes", id, len(path))
		}
		for i := 1; i < len(path); i++ {
			if !tr.HasEdge(path[i-1], path[i]) {
				t.Fatalf("compress path %d not contiguous", id)
			}
		}
		for i, v := range path {
			higherCount := 0
			for _, w := range tr.NeighborsRaw(v) {
				u := int(w)
				if int(d.Assign[u].PathID) == id {
					continue
				}
				if higher(u, v) {
					higherCount++
				}
			}
			interior := i > 0 && i < len(path)-1
			if interior && higherCount != 0 {
				t.Fatalf("interior compress node %d has %d higher neighbors", v, higherCount)
			}
			if !interior && higherCount > 1 {
				t.Fatalf("compress endpoint %d has %d higher neighbors", v, higherCount)
			}
		}
	}
}

func TestComputeOnPathRelaxed(t *testing.T) {
	tr, err := graph.BuildPath(100)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Gamma: 1, Ell: 3}
	d, err := Compute(tr, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, tr, d, opts)
	// A bare path compresses almost entirely in iteration 1.
	if d.Iters > 3 {
		t.Fatalf("path took %d iterations", d.Iters)
	}
}

func TestComputeOnPathSplit(t *testing.T) {
	tr, err := graph.BuildPath(200)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Gamma: 1, Ell: 4, SplitPaths: true}
	d, err := Compute(tr, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, tr, d, opts)
}

func TestComputeLogIterationsGamma1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 1000, 10000} {
		tr := randomTree(rng, n, 5)
		d, err := Compute(tr, nil, Options{Gamma: 1, Ell: 3})
		if err != nil {
			t.Fatal(err)
		}
		bound := 6*int(math.Log2(float64(n))) + 8
		if d.Iters > bound {
			t.Fatalf("n=%d: %d iterations > %d = O(log n)", n, d.Iters, bound)
		}
	}
}

func TestGeometricDecay(t *testing.T) {
	// The substitute accounting for the Fast Decomposition Algorithm relies
	// on the number of nodes assigned at iteration >= i decaying
	// geometrically; check sum over nodes of Iter is O(n) on balanced trees
	// and random trees (that is exactly "O(1) node-averaged" for layer-
	// proportional charging).
	rng := rand.New(rand.NewSource(9))
	shapes := []*graph.Tree{
		mustBalanced(t, 5, 20000),
		randomTree(rng, 20000, 6),
	}
	for i, tr := range shapes {
		d, err := Compute(tr, nil, Options{Gamma: 1, Ell: 3})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for v := 0; v < tr.N(); v++ {
			sum += int64(d.Assign[v].Iter)
		}
		avg := float64(sum) / float64(tr.N())
		if avg > 8 {
			t.Fatalf("shape %d: average assignment iteration %.2f, want O(1)", i, avg)
		}
	}
}

func mustBalanced(t *testing.T, delta, size int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildBalanced(delta, size)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLemma72KIterations(t *testing.T) {
	// With γ = GammaForK(n, ℓ, k), the decomposition finishes within k
	// iterations (Lemma 72).
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 3} {
		for _, n := range []int{100, 2000, 20000} {
			tr := randomTree(rng, n, 4)
			gamma := GammaForK(n, 4, k)
			d, err := Compute(tr, nil, Options{Gamma: gamma, Ell: 4, SplitPaths: true})
			if err != nil {
				t.Fatal(err)
			}
			if d.Iters > k {
				t.Fatalf("k=%d n=%d γ=%d: took %d iterations", k, n, gamma, d.Iters)
			}
		}
	}
}

func TestLemma72KIterationsOnPaths(t *testing.T) {
	for _, k := range []int{2, 3} {
		n := 5000
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		gamma := GammaForK(n, 4, k)
		d, err := Compute(tr, nil, Options{Gamma: gamma, Ell: 4, SplitPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		if d.Iters > k {
			t.Fatalf("k=%d path: took %d iterations", k, d.Iters)
		}
	}
}

func TestComputeValidatesOptions(t *testing.T) {
	tr, err := graph.BuildPath(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(tr, nil, Options{Gamma: 0, Ell: 3}); err == nil {
		t.Error("gamma=0 accepted")
	}
	if _, err := Compute(tr, nil, Options{Gamma: 1, Ell: 0}); err == nil {
		t.Error("ell=0 accepted")
	}
}

func TestSplitRunChunks(t *testing.T) {
	run := make([]int, 23)
	for i := range run {
		run[i] = i
	}
	chunks := splitRun(run, 4)
	covered := 0
	for _, c := range chunks {
		if len(c) < 4 || len(c) > 8 {
			t.Fatalf("chunk size %d outside [4,8]", len(c))
		}
		covered += len(c)
	}
	if covered >= len(run) {
		t.Fatal("separators not excluded")
	}
}

func TestSingleNode(t *testing.T) {
	tr, err := graph.BuildPath(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(tr, nil, Options{Gamma: 1, Ell: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Assign[0].Kind != KindRake || d.Iters != 1 {
		t.Fatalf("single node: %+v iters=%d", d.Assign[0], d.Iters)
	}
}

// TestComputeOrderAndPins: Order lists every node once; a rake node has at
// most one neighbor after it in Order and a pinned rake node none (its
// phantom edge is its last); no pinned node joins a compress path; and a
// compress path's interior nodes leave before its two endpoints.
func TestComputeOrderAndPins(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	finished := 0
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(400)
		tr := randomTree(rng, n, 4)
		pinned := make([]bool, n)
		for i := trial % 4; i > 0; i-- {
			pinned[rng.Intn(n)] = true
		}
		opts := Options{Gamma: 2, Ell: 4, SplitPaths: true}
		d, err := Compute(tr, pinned, opts)
		if errors.Is(err, ErrUnfinished) {
			continue // pins can anchor a short degree-2 chain for good
		}
		if err != nil {
			t.Fatal(err)
		}
		finished++
		pos := make([]int, n)
		for v := range pos {
			pos[v] = -1
		}
		for i, v := range d.Order {
			if pos[v] != -1 {
				t.Fatalf("trial %d: node %d removed twice", trial, v)
			}
			pos[v] = i
		}
		if len(d.Order) != n {
			t.Fatalf("trial %d: Order has %d of %d nodes", trial, len(d.Order), n)
		}
		for v := 0; v < n; v++ {
			later := 0
			for _, w := range tr.NeighborsRaw(v) {
				if pos[w] > pos[v] {
					later++
				}
			}
			switch a := d.Assign[v]; {
			case a.Kind == KindCompress && pinned[v]:
				t.Fatalf("trial %d: pinned node %d in a compress path", trial, v)
			case a.Kind == KindRake && (later > 1 || pinned[v] && later > 0):
				t.Fatalf("trial %d: rake node %d (pinned %v) leaves before %d neighbors", trial, v, pinned[v], later)
			}
		}
		for _, path := range d.Paths {
			last := len(path) - 1
			for _, v := range path[1:last] {
				if pos[v] > pos[path[0]] || pos[v] > pos[path[last]] {
					t.Fatalf("trial %d: interior node %d leaves after an endpoint", trial, v)
				}
			}
		}
	}
	if finished < 15 {
		t.Fatalf("only %d of 30 pinned decompositions finished", finished)
	}
}
