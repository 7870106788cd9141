package labeling

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/weighted"
)

// This file keeps the k-hierarchical labeling solver as it was before
// decomp.Compute became the repository's only rake-and-compress peel:
// oracleSolve runs its own peel (oracleAliveDeg2Runs, oracleSplitChunks)
// and labels nodes as it removes them. Solve must agree with it on every
// label, orientation and round, on the removal order, and on which inputs
// are infeasible.

// oracleSolution is the old Solution: Seq[v] is v's removal sequence number.
type oracleSolution struct {
	Out    []Output
	Rounds []int
	Seq    []int
}

func oracleSolve(t *graph.Tree, k int, pinned []bool) (*oracleSolution, error) {
	n := t.N()
	if k < 1 {
		return nil, fmt.Errorf("labeling: k = %d < 1", k)
	}
	if pinned == nil {
		pinned = make([]bool, n)
	}
	if len(pinned) != n {
		return nil, fmt.Errorf("labeling: pinned length %d != n %d", len(pinned), n)
	}
	for v := 0; v < n; v++ {
		if !pinned[v] {
			continue
		}
		for _, w := range t.NeighborsRaw(v) {
			if pinned[w] {
				return nil, fmt.Errorf("%w: adjacent pinned nodes %d and %d", ErrInfeasible, v, int(w))
			}
		}
	}
	gamma := decomp.GammaForK(n, 4, k)
	sol := &oracleSolution{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
		Seq:    make([]int, n),
	}
	seq := 0
	alive := make([]bool, n)
	deg := make([]int, n) // effective degree: +1 for pinned nodes
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = t.Degree(v)
		if pinned[v] {
			deg[v]++
		}
	}
	remaining := n
	aliveNbr := func(v int) int {
		for _, w := range t.NeighborsRaw(v) {
			if alive[w] {
				return int(w)
			}
		}
		return -1
	}
	remove := func(v int, out Output, iter int) {
		sol.Out[v] = out
		sol.Seq[v] = seq
		seq++
		sol.Rounds[v] = iter * (gamma + 2)
		alive[v] = false
		remaining--
		for _, w := range t.NeighborsRaw(v) {
			if alive[w] {
				deg[w]--
			}
		}
	}
	for iter := 1; remaining > 0; iter++ {
		if iter > k {
			return nil, fmt.Errorf("%w: needs more than k=%d iterations (γ=%d)", ErrInfeasible, k, gamma)
		}
		for sub := 0; sub < gamma && remaining > 0; sub++ {
			var batch []int
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= 1 {
					batch = append(batch, v)
				}
			}
			for _, v := range batch {
				remove(v, Output{Label: Rake(iter), OutNode: aliveNbr(v)}, iter)
			}
		}
		if remaining == 0 {
			break
		}
		runs := oracleAliveDeg2Runs(t, alive, deg, pinned)
		for _, run := range runs {
			if len(run) < 4 {
				continue
			}
			if iter == k {
				return nil, fmt.Errorf("%w: compress needed at iteration k=%d (no C_%d label)", ErrInfeasible, k, k)
			}
			for _, chunk := range oracleSplitChunks(run, 4) {
				last := len(chunk) - 1
				for i := 1; i < last; i++ {
					out := Output{Label: Compress(iter), OutNode: -1}
					if i == 1 {
						out.OutNode = chunk[0]
					} else if i == last-1 {
						out.OutNode = chunk[last]
					}
					remove(chunk[i], out, iter)
				}
				for _, e := range []int{0, last} {
					v := chunk[e]
					if e == last && last == 0 {
						continue
					}
					remove(v, Output{Label: Rake(iter + 1), OutNode: aliveNbr(v)}, iter)
				}
			}
		}
	}
	return sol, nil
}

func oracleAliveDeg2Runs(t *graph.Tree, alive []bool, deg []int, pinned []bool) [][]int {
	n := t.N()
	isMid := func(v int) bool { return alive[v] && deg[v] == 2 && !pinned[v] }
	seen := make([]bool, n)
	var runs [][]int
	for v := 0; v < n; v++ {
		if !isMid(v) || seen[v] {
			continue
		}
		prev, cur := -1, v
		for {
			next := -1
			for _, w := range t.NeighborsRaw(cur) {
				u := int(w)
				if u != prev && isMid(u) {
					next = u
					break
				}
			}
			if next == -1 {
				break
			}
			prev, cur = cur, next
		}
		run := []int{cur}
		seen[cur] = true
		prev = -1
		for {
			next := -1
			for _, w := range t.NeighborsRaw(cur) {
				u := int(w)
				if u != prev && isMid(u) && !seen[u] {
					next = u
					break
				}
			}
			if next == -1 {
				break
			}
			seen[next] = true
			run = append(run, next)
			prev, cur = cur, next
		}
		runs = append(runs, run)
	}
	return runs
}

func oracleSplitChunks(run []int, ell int) [][]int {
	var chunks [][]int
	for len(run) > 2*ell {
		chunks = append(chunks, run[:ell])
		run = run[ell+1:]
	}
	if len(run) >= ell {
		chunks = append(chunks, run)
	}
	return chunks
}

// matchOracle runs Solve and oracleSolve on one input. It returns whether
// both found the input infeasible, or an error describing how they differ.
// Infeasibility must agree, not its wording: the oracle gives up at
// iteration k as soon as a compress path is due, Solve one iteration later.
func matchOracle(tr *graph.Tree, k int, pinned []bool) (infeasible bool, err error) {
	got, gerr := Solve(tr, k, pinned)
	want, werr := oracleSolve(tr, k, pinned)
	if errors.Is(gerr, ErrInfeasible) || errors.Is(werr, ErrInfeasible) {
		if !errors.Is(gerr, ErrInfeasible) || !errors.Is(werr, ErrInfeasible) {
			return false, fmt.Errorf("Solve error %v, oracle %v", gerr, werr)
		}
		return true, nil
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return false, fmt.Errorf("Solve error %v, oracle %v", gerr, werr)
	}
	if gerr != nil {
		return false, nil
	}
	if !slices.Equal(got.Out, want.Out) {
		return false, fmt.Errorf("Out differs from the oracle")
	}
	if !slices.Equal(got.Rounds, want.Rounds) {
		return false, fmt.Errorf("Rounds differ from the oracle")
	}
	if len(got.Order) != tr.N() {
		return false, fmt.Errorf("Order has %d entries for %d nodes", len(got.Order), tr.N())
	}
	for v, s := range want.Seq {
		if int(got.Order[s]) != v {
			return false, fmt.Errorf("removal %d is node %d, oracle %d", s, got.Order[s], v)
		}
	}
	return false, nil
}

// drawPins returns no pins (mode 0), one pin (mode 1) or sparse random pins
// (mode 2, each node with probability 1/16).
func drawPins(rng *rand.Rand, n, mode int) []bool {
	if mode == 0 {
		return nil
	}
	pinned := make([]bool, n)
	if mode == 1 {
		pinned[rng.Intn(n)] = true
		return pinned
	}
	for v := range pinned {
		pinned[v] = rng.Intn(16) == 0
	}
	return pinned
}

// TestSolveMatchesOracle holds Solve to the old solver on random trees of
// maximum degree 3-6, paths and caterpillars, at k = 1..4, with no pins,
// one pin and sparse random pins, and on every weight component of
// weight-augmented constructions with its active-adjacent nodes pinned.
func TestSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var trees []*graph.Tree
	for maxDeg := 3; maxDeg <= 6; maxDeg++ {
		for _, n := range []int{1, 2, 3, 5, 9, 17, 40, 90, 200, 450} {
			for rep := 0; rep < 6; rep++ {
				trees = append(trees, randomTree(rng, n, maxDeg))
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 10, 17, 33, 100, 1000} {
		trees = append(trees, mustPath(t, n))
	}
	for _, sl := range [][2]int{{1, 0}, {3, 1}, {10, 2}, {20, 4}, {50, 3}, {7, 9}} {
		trees = append(trees, mustCaterpillar(t, sl[0], sl[1]))
	}
	cases, infeasible := 0, 0
	check := func(name string, tr *graph.Tree, k int, pinned []bool) {
		t.Helper()
		inf, err := matchOracle(tr, k, pinned)
		if err != nil {
			t.Fatalf("%s (n=%d, k=%d): %v", name, tr.N(), k, err)
		}
		cases++
		if inf {
			infeasible++
		}
	}
	for i, tr := range trees {
		for k := 1; k <= 4; k++ {
			for mode := 0; mode < 3; mode++ {
				check(fmt.Sprintf("tree %d pins %d", i, mode), tr, k, drawPins(rng, tr.N(), mode))
			}
		}
	}
	for _, c := range []struct {
		k, delta int
		lengths  []int
		budget   int
	}{
		{2, 5, []int{8, 10}, 400},
		{2, 4, []int{6, 8}, 3000},
		{2, 6, []int{12, 12}, 150},
		{3, 5, []int{3, 4, 5}, 500},
		{3, 4, []int{4, 4, 4}, 2000},
	} {
		in, err := BuildAugInstance(c.k, c.delta, c.lengths, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		weight, _ := graph.InducedComponents(in.Tree, in.Weight)
		for _, comp := range weight {
			pinned := make([]bool, comp.Tree.N())
			for i, v := range comp.Nodes {
				for _, w := range in.Tree.NeighborsRaw(v) {
					pinned[i] = pinned[i] || !in.Weight[w]
				}
			}
			check(fmt.Sprintf("aug k=%d Δ=%d component at %d", c.k, c.delta, comp.Nodes[0]), comp.Tree, c.k, pinned)
		}
	}
	t.Logf("%d cases, %d infeasible on both sides", cases, infeasible)
}

// FuzzSolveMatchesOracle holds Solve to the old solver on Galton-Watson
// trees, ladders, paths and caterpillars with drawn k and pins.
func FuzzSolveMatchesOracle(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		for k := uint8(0); k < 4; k++ {
			for pins := uint8(0); pins < 3; pins++ {
				f.Add(uint64(shape)*31+uint64(k)*7+uint64(pins), uint16(40+97*int(k)), shape, k, pins)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, shape, k, pins uint8) {
		n := 1 + int(size)%1500
		var tr *graph.Tree
		var err error
		switch shape % 4 {
		case 0:
			tr, err = graph.BuildGaltonWatson(n, 3+int(seed%4), seed)
		case 1:
			tr, err = graph.BuildLadder(n, seed)
		case 2:
			tr, err = graph.BuildPath(n)
		default:
			tr, err = graph.BuildCaterpillar(1+n/4, int(seed%5))
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		if _, err := matchOracle(tr, 1+int(k%4), drawPins(rng, tr.N(), int(pins%3))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWeightedAndAugConstructionsShareCSR pins the Definition-25 tree that
// weighted.BuildInstanceFrom and BuildAugInstanceFrom both build through
// graph.BuildWeightedHierarchical: from one core, Δ and budget the two
// trees have identical CSR arrays, and their digests equal the ones
// recorded from the two separate builders this construction replaced.
func TestWeightedAndAugConstructionsShareCSR(t *testing.T) {
	for _, c := range []struct {
		lengths         []int
		delta, d, bw, n int
		want            uint64
	}{
		{[]int{8, 10}, 5, 2, 400, 490, 0x11086921078fc4a7},
		{[]int{6, 8}, 4, 1, 3000, 3056, 0x219aaa27ed28168c},
		{[]int{3, 4, 5}, 6, 3, 500, 1085, 0xdea1fe9bb066c88e},
		{[]int{4, 4, 4}, 5, 2, 50, 180, 0xbb3bf0c49e70b030},
		{[]int{2, 2}, 7, 4, 0, 8, 0x1ed7051360ae91c3},
	} {
		k := len(c.lengths)
		h, err := graph.BuildHierarchical(c.lengths)
		if err != nil {
			t.Fatal(err)
		}
		p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: c.delta, D: c.d, K: k}
		w, err := weighted.BuildInstanceFrom(p, h, c.bw)
		if err != nil {
			t.Fatal(err)
		}
		a, err := BuildAugInstanceFrom(k, c.delta, h, c.bw)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.Tree.Offsets(), a.Tree.Offsets()) || !slices.Equal(w.Tree.AdjacencyRaw(), a.Tree.AdjacencyRaw()) {
			t.Fatalf("%v Δ=%d w=%d: weighted and weight-augmented trees differ", c.lengths, c.delta, c.bw)
		}
		if w.Tree.N() != c.n || csrDigest(a.Tree) != c.want {
			t.Errorf("%v Δ=%d w=%d: n=%d digest %#x, want n=%d digest %#x",
				c.lengths, c.delta, c.bw, w.Tree.N(), csrDigest(a.Tree), c.n, c.want)
		}
		for v := 0; v < a.Tree.N(); v++ {
			if a.Weight[v] != (w.Inputs[v] == weighted.InputWeight) {
				t.Fatalf("%v: node %d weight mark differs", c.lengths, v)
			}
		}
	}
}

// csrDigest is an FNV-1a digest of a tree's offset and neighbor arrays.
func csrDigest(t *graph.Tree) uint64 {
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
