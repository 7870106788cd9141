package coloring

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestPrimes(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 29, 97}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []int{0, 1, 4, 9, 15, 91}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
	if NextPrime(4) != 5 || NextPrime(5) != 7 || NextPrime(24) != 29 {
		t.Error("NextPrime wrong")
	}
}

func TestPaletteScheduleShrinksToConstant(t *testing.T) {
	steps, fix, err := PaletteSchedule(2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no reduction steps for 63-bit IDs")
	}
	// The schedule must be strictly decreasing and end at a constant
	// (independent of n) palette.
	prev := steps[0].m
	for _, s := range steps[1:] {
		if s.m >= prev {
			t.Fatalf("palette not shrinking: %d -> %d", prev, s.m)
		}
		prev = s.m
	}
	if fix > 100 {
		t.Fatalf("fixpoint palette %d too large", fix)
	}
	// log* flavor: the number of steps is tiny.
	if len(steps) > 10 {
		t.Fatalf("schedule has %d steps, want O(log* n) ~ <= 10", len(steps))
	}
}

func TestReducerRoundsMatchesSchedule(t *testing.T) {
	const delta = 2
	steps, fix, err := PaletteSchedule(delta, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	// One round per reduction step, then one per greedy class fix-1 .. Δ+1.
	want := len(steps) + max(int(fix)-1-delta, 0)
	if want <= 0 || want > 60 {
		t.Fatalf("schedule takes %d rounds, want small positive", want)
	}
	r, err := NewReducer(12345, delta, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for ; !r.Done() && rounds <= want; rounds++ {
		if err := r.Advance(nil); err != nil {
			t.Fatal(err)
		}
	}
	if rounds != want {
		t.Fatalf("done after %d rounds, schedule takes %d", rounds, want)
	}
}

func runColoring(t *testing.T, tr *graph.Tree, delta int, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(tr.N(), seed))).Run(tr, LinialAlgorithm{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func colorsOf(res *sim.Result) []int64 {
	out := make([]int64, len(res.Outputs))
	for i, o := range res.Outputs {
		out[i] = o.(int64)
	}
	return out
}

func TestLinialColorsPathWith3Colors(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res := runColoring(t, tr, 2, uint64(n))
		colors := colorsOf(res)
		for v, c := range colors {
			if c < 0 || c > 2 {
				t.Fatalf("n=%d: node %d color %d outside {0,1,2}", n, v, c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("n=%d: edge {%d,%d} monochromatic", n, u, v)
		}
	}
}

func TestLinialWorstCaseRoundsAreLogStarish(t *testing.T) {
	// Round count must be essentially flat in n (O(log* n) + O(Δ²)).
	var r100, r100k int
	for _, n := range []int{100, 100000} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res := runColoring(t, tr, 2, 99)
		if n == 100 {
			r100 = res.TotalRounds
		} else {
			r100k = res.TotalRounds
		}
	}
	if r100k > r100+5 {
		t.Fatalf("rounds grew from %d (n=100) to %d (n=100000); not log*-like", r100, r100k)
	}
	if r100k > 80 {
		t.Fatalf("rounds = %d, want < 80", r100k)
	}
}

func TestLinialColorsTreesWithDeltaPlus1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		// Random tree with degree cap 5.
		n := 50 + rng.Intn(200)
		b := graph.NewBuilder(n)
		b.AddNode()
		deg := make([]int, n)
		for v := 1; v < n; v++ {
			b.AddNode()
			for {
				u := rng.Intn(v)
				if deg[u] < 4 {
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
		res := runColoring(t, tr, 5, uint64(trial+1))
		colors := colorsOf(res)
		for _, c := range colors {
			if c < 0 || c > 5 {
				t.Fatalf("color %d outside {0..5}", c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("trial %d: edge {%d,%d} monochromatic", trial, u, v)
		}
	}
	// A center of degree 12 exceeds the machine's stack scratch; its schedule
	// (830 rounds) outlasts the default round limit of a 13-node run.
	star, err := graph.BuildStar(13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(13, 3)), sim.WithMaxRounds(1000)).
		Run(star, LinialAlgorithm{Delta: 12})
	if err != nil {
		t.Fatal(err)
	}
	if ok, u, v := VerifyProperColoring(star, colorsOf(res)); !ok {
		t.Fatalf("star: edge {%d,%d} monochromatic", u, v)
	}
}

func TestQuickLinialProperOnRandomPathsAndSeeds(t *testing.T) {
	f := func(seed uint64, sz uint16) bool {
		n := 2 + int(sz)%500
		tr, err := graph.BuildPath(n)
		if err != nil {
			return false
		}
		res, err := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(n, seed|1))).Run(tr, LinialAlgorithm{Delta: 2})
		if err != nil {
			return false
		}
		ok, _, _ := VerifyProperColoring(tr, colorsOf(res))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoColorPathProper(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 50, 501} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(n, uint64(n)*3+1))).Run(tr, TwoColorPathAlgorithm{})
		if err != nil {
			t.Fatal(err)
		}
		colors := colorsOf(res)
		for _, c := range colors {
			if c != 0 && c != 1 {
				t.Fatalf("n=%d: non-binary color %d", n, c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("n=%d: edge {%d,%d} monochromatic", n, u, v)
		}
		// Each directed edge carries exactly one endpoint announcement.
		if want := int64(2 * (n - 1)); res.Messages != want {
			t.Fatalf("n=%d: %d messages, want %d", n, res.Messages, want)
		}
	}
}

func TestTwoColorPathIsLinearNodeAveraged(t *testing.T) {
	// Corollary 60 regime: node-averaged complexity of 2-coloring a path is
	// Θ(n). Check the ratio avg/n stays in a constant band as n grows.
	ratios := make([]float64, 0, 3)
	for _, n := range []int{200, 400, 800} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.NewEngine().Run(tr, TwoColorPathAlgorithm{})
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, res.NodeAveraged()/float64(n))
	}
	for _, r := range ratios {
		// Every node waits max(dL,dR) >= n/2; averaged over the path the sum
		// of max distances is 3n²/4, so the ratio is about 0.75.
		if r < 0.5 || r > 1.1 {
			t.Fatalf("node-averaged/n = %v, want within [0.5, 1.1]", r)
		}
	}
}

func TestReducerMaskedNeighbors(t *testing.T) {
	// Two adjacent nodes reduce in lockstep with a third port masked (-1).
	r1, err := NewReducer(100, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReducer(200, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	for !r1.Done() || !r2.Done() {
		c1, c2 := r1.Color(), r2.Color()
		if err := r1.Advance([]int64{c2, -1}); err != nil {
			t.Fatal(err)
		}
		if err := r2.Advance([]int64{c1, -1}); err != nil {
			t.Fatal(err)
		}
	}
	if r1.Color() == r2.Color() {
		t.Fatalf("adjacent nodes share final color %d", r1.Color())
	}
	if r1.Color() > 2 || r2.Color() > 2 {
		t.Fatalf("final colors (%d,%d) exceed 2", r1.Color(), r2.Color())
	}
}

func TestReducerRejectsImproperInput(t *testing.T) {
	r, err := NewReducer(100, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance([]int64{100}); err == nil {
		t.Fatal("want error for identical neighbor color")
	}
}

// TestNodeKernelAllocs bounds what a whole Engine.Run allocates per node,
// engine buffers included. Both machines run for many rounds per node
// (about 120 for Linial at Δ = 4, about 384 steps per node for the
// two-coloring), so a kernel that allocated once per round, or once per
// port, would exceed the bound many times over. Both algorithms build
// their machines in one slab, and a Linial run's nodes all terminate in its
// last round, which writes no frozen output: what remains per node is the
// boxed color of round 0 for Linial (1.0 measured), and for the
// two-coloring its two endpoint messages and its frozen output (3.0).
func TestNodeKernelAllocs(t *testing.T) {
	gw, err := graph.BuildGaltonWatson(2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path, err := graph.BuildPath(512)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tr      *graph.Tree
		alg     sim.Algorithm
		perNode float64
	}{
		{"gw2000-linial", gw, LinialAlgorithm{Delta: gw.MaxDegree()}, 2},
		{"path512-2color", path, TwoColorPathAlgorithm{}, 3.1},
	} {
		n := tc.tr.N()
		eng := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(n, 1)))
		var res *sim.Result
		allocs := testing.AllocsPerRun(3, func() {
			if res, err = eng.Run(tc.tr, tc.alg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rounds, %.0f steps and %.3f allocations per node",
			tc.name, res.TotalRounds, float64(res.Steps)/float64(n), allocs/float64(n))
		if allocs > tc.perNode*float64(n) {
			t.Errorf("%s: %.0f allocations for %d nodes, want at most %g per node",
				tc.name, allocs, n, tc.perNode)
		}
	}
}

// stepCounts wraps an algorithm and counts the Step calls of its machines;
// they sleep when the algorithm's do.
type stepCounts struct {
	sim.Algorithm
	calls atomic.Int64
}

func (a *stepCounts) NewMachine(info sim.NodeInfo) sim.Machine {
	return &countedMachine{Machine: a.Algorithm.NewMachine(info), calls: &a.calls}
}

type countedMachine struct {
	sim.Machine
	calls *atomic.Int64
}

func (m *countedMachine) Step(round int, recv []any) ([]any, bool) {
	m.calls.Add(1)
	return m.Machine.Step(round, recv)
}

func (m *countedMachine) Idle(round int) int { return m.Machine.(sim.Sleeper).Idle(round) }

// TestNodeKernelsSkipIdleSteps bounds the Step calls the engine makes per
// node on every backend: a Linial node of a Galton-Watson tree is charged
// about 120 rounds and a two-coloring node of a 2048-node path about 1536,
// but each steps only in its reduction rounds, in the greedy round of its
// own color class and in its last round, or when an endpoint message
// arrives: at most 6 and 5 times.
func TestNodeKernelsSkipIdleSteps(t *testing.T) {
	gw, err := graph.BuildGaltonWatson(2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path, err := graph.BuildPath(2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tr    *graph.Tree
		alg   sim.Algorithm
		bound int64
	}{
		{"gw2000-linial", gw, LinialAlgorithm{Delta: gw.MaxDegree()}, 6},
		{"path2048-2color", path, TwoColorPathAlgorithm{}, 5},
	} {
		n := int64(tc.tr.N())
		for backend, opts := range map[string][]sim.Option{
			"seq":            nil,
			"par2":           {sim.WithParallelism(2)},
			"shard3-range":   {sim.WithShards(3), sim.WithShardLayout(sim.LayoutRange)},
			"shard3-subtree": {sim.WithShards(3), sim.WithShardLayout(sim.LayoutSubtree)},
		} {
			alg := &stepCounts{Algorithm: tc.alg}
			res, err := sim.NewEngine(append([]sim.Option{sim.WithIDs(sim.DefaultIDs(int(n), 1))}, opts...)...).Run(tc.tr, alg)
			if err != nil {
				t.Fatal(err)
			}
			name := tc.name + " on " + backend
			calls := alg.calls.Load()
			t.Logf("%s: %.2f Step calls and %.1f steps per node", name, float64(calls)/float64(n), float64(res.Steps)/float64(n))
			if calls > tc.bound*n {
				t.Errorf("%s: %d Step calls for %d nodes, want at most %d per node", name, calls, n, tc.bound)
			}
		}
	}
}
