package coloring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestLogStar2(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1 << 62, 5},
	}
	for _, tc := range cases {
		if got := LogStar2(tc.x); got != tc.want {
			t.Errorf("LogStar2(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

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
	r, err := NewReducer(12345, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds() <= 0 || r.Rounds() > 60 {
		t.Fatalf("Rounds() = %d, want small positive", r.Rounds())
	}
}

func runColoring(t *testing.T, tr *graph.Tree, delta int, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(tr, LinialAlgorithm{Delta: delta}, sim.Config{
		IDs: sim.DefaultIDs(tr.N(), seed),
	})
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
		res, err := sim.Run(tr, LinialAlgorithm{Delta: 2}, sim.Config{
			IDs: sim.DefaultIDs(n, seed|1),
		})
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
		res, err := sim.Run(tr, TwoColorPathAlgorithm{}, sim.Config{
			IDs: sim.DefaultIDs(n, uint64(n)*3+1),
		})
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
		res, err := sim.Run(tr, TwoColorPathAlgorithm{}, sim.Config{})
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
// port, would exceed the bound many times over.
func TestNodeKernelAllocs(t *testing.T) {
	const perNode = 16
	gw, err := graph.BuildGaltonWatson(2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path, err := graph.BuildPath(512)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *graph.Tree
		alg  sim.Algorithm
	}{
		{"gw2000-linial", gw, LinialAlgorithm{Delta: gw.MaxDegree()}},
		{"path512-2color", path, TwoColorPathAlgorithm{}},
	} {
		n := tc.tr.N()
		eng := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(n, 1)))
		var res *sim.Result
		allocs := testing.AllocsPerRun(3, func() {
			if res, err = eng.Run(tc.tr, tc.alg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rounds, %.0f steps and %.1f allocations per node",
			tc.name, res.TotalRounds, float64(res.Steps)/float64(n), allocs/float64(n))
		if allocs > perNode*float64(n) {
			t.Errorf("%s: %.0f allocations for %d nodes, want at most %d per node",
				tc.name, allocs, n, perNode)
		}
	}
}
