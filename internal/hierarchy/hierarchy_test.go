package hierarchy

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func mustSchedule(t *testing.T, k int, variant Variant, gammas []int) *Schedule {
	t.Helper()
	s, err := NewSchedule(Params{Problem: Problem{K: k, Variant: variant}, Gammas: gammas})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func levelInputs(levels []int) []any {
	in := make([]any, len(levels))
	for i, l := range levels {
		in[i] = l
	}
	return in
}

// collectExecution converts a simulator result whose outputs are Labels into
// an Execution.
func collectExecution(outputs []any, rounds []int) (*Execution, error) {
	ex := &Execution{
		Out:    make([]Label, len(outputs)),
		Rounds: append([]int(nil), rounds...),
	}
	for v, o := range outputs {
		lab, ok := o.(Label)
		if !ok {
			return nil, fmt.Errorf("hierarchy: node %d output %T, want Label", v, o)
		}
		ex.Out[v] = lab
	}
	return ex, nil
}

// runBoth runs the generic algorithm through the simulator and analytically,
// asserts they agree exactly, verifies the output, and returns the
// execution.
func runBoth(t *testing.T, tr *graph.Tree, sched *Schedule, seed uint64) *Execution {
	t.Helper()
	k := sched.params.Problem.K
	levels := graph.ComputeLevels(tr, k)
	ids := sim.DefaultIDs(tr.N(), seed)
	res, err := sim.NewEngine(
		sim.WithIDs(ids),
		sim.WithInputs(levelInputs(levels)),
		sim.WithMaxRounds(8*tr.N()+256),
	).Run(tr, Generic{Schedule: sched})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	simEx, err := collectExecution(res.Outputs, res.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	anEx, err := RunAnalytic(tr, levels, sched, ids)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	for v := 0; v < tr.N(); v++ {
		if simEx.Out[v] != anEx.Out[v] {
			t.Fatalf("node %d (level %d): sim output %v, analytic %v",
				v, levels[v], simEx.Out[v], anEx.Out[v])
		}
		if simEx.Rounds[v] != anEx.Rounds[v] {
			t.Fatalf("node %d (level %d, out %v): sim round %d, analytic %d",
				v, levels[v], simEx.Out[v], simEx.Rounds[v], anEx.Rounds[v])
		}
	}
	if err := sched.params.Problem.Verify(tr, levels, simEx.Out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return simEx
}

func TestGenericOnPathK1Both(t *testing.T) {
	for _, variant := range []Variant{Coloring25, Coloring35} {
		for _, n := range []int{1, 2, 3, 9, 40} {
			tr, err := graph.BuildPath(n)
			if err != nil {
				t.Fatal(err)
			}
			sched := mustSchedule(t, 1, variant, nil)
			runBoth(t, tr, sched, uint64(n)*7+uint64(variant))
		}
	}
}

func TestGenericOnHierarchicalK2(t *testing.T) {
	for _, variant := range []Variant{Coloring25, Coloring35} {
		for _, gamma := range []int{2, 3, 5, 10} {
			h, err := graph.BuildHierarchical([]int{6, 8})
			if err != nil {
				t.Fatal(err)
			}
			sched := mustSchedule(t, 2, variant, []int{gamma})
			runBoth(t, h.Tree, sched, uint64(gamma)*13+uint64(variant))
		}
	}
}

func TestGenericOnHierarchicalK3(t *testing.T) {
	for _, variant := range []Variant{Coloring25, Coloring35} {
		h, err := graph.BuildHierarchical([]int{4, 5, 6})
		if err != nil {
			t.Fatal(err)
		}
		sched := mustSchedule(t, 3, variant, []int{3, 4})
		runBoth(t, h.Tree, sched, uint64(variant)*31+5)
	}
}

func TestGenericOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		n := 10 + rng.Intn(120)
		b := graph.NewBuilder(n)
		b.AddNode()
		for v := 1; v < n; v++ {
			b.AddNode()
			if err := b.AddEdge(v, rng.Intn(v)); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(3)
		gammas := make([]int, k-1)
		for i := range gammas {
			gammas[i] = 1 + rng.Intn(6)
		}
		variant := Coloring25
		if trial%2 == 1 {
			variant = Coloring35
		}
		sched := mustSchedule(t, k, variant, gammas)
		runBoth(t, tr, sched, uint64(trial)+100)
	}
}

func TestGenericOnCaterpillar(t *testing.T) {
	tr, err := graph.BuildCaterpillar(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{Coloring25, Coloring35} {
		sched := mustSchedule(t, 2, variant, []int{3})
		runBoth(t, tr, sched, uint64(variant))
	}
}

func TestVerifierRejectsBrokenOutputs(t *testing.T) {
	h, err := graph.BuildHierarchical([]int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := h.Tree
	prob := Problem{K: 2, Variant: Coloring35}
	levels := graph.ComputeLevels(tr, 2)
	sched := mustSchedule(t, 2, Coloring35, []int{3})
	ids := sim.DefaultIDs(tr.N(), 5)
	ex, err := RunAnalytic(tr, levels, sched, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Verify(tr, levels, ex.Out); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(out []Label) bool // returns false if no applicable node
	}{
		{"level-1 gets E", func(out []Label) bool {
			for v := range out {
				if levels[v] == 1 {
					out[v] = LabelE
					return true
				}
			}
			return false
		}},
		{"level-k gets D", func(out []Label) bool {
			for v := range out {
				if levels[v] == 2 {
					out[v] = LabelD
					return true
				}
			}
			return false
		}},
		{"tri-color below level k", func(out []Label) bool {
			for v := range out {
				if levels[v] == 1 {
					out[v] = LabelR
					return true
				}
			}
			return false
		}},
		{"duplicate 3-color on edge", func(out []Label) bool {
			for _, e := range tr.Edges() {
				if out[e[0]].IsTriColor() && out[e[1]].IsTriColor() {
					out[e[1]] = out[e[0]]
					return true
				}
			}
			return false
		}},
		{"missing output", func(out []Label) bool {
			out[0] = LabelNone
			return true
		}},
	}
	for _, mut := range mutations {
		out := append([]Label(nil), ex.Out...)
		if !mut.mutate(out) {
			continue
		}
		err := prob.Verify(tr, levels, out)
		if err == nil {
			t.Errorf("%s: verifier accepted broken output", mut.name)
		} else if !errors.Is(err, ErrInvalidOutput) {
			t.Errorf("%s: error not wrapped: %v", mut.name, err)
		}
	}
}

func TestVerifierEIffRule(t *testing.T) {
	// A level-2 node adjacent to a 2-colored level-1 path MUST be E.
	h, err := graph.BuildHierarchical([]int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	tr := h.Tree
	levels := graph.ComputeLevels(tr, 2)
	sched := mustSchedule(t, 2, Coloring25, []int{5}) // γ=5 > pendant length 2: paths color
	ids := sim.DefaultIDs(tr.N(), 9)
	ex, err := RunAnalytic(tr, levels, sched, ids)
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem{K: 2, Variant: Coloring25}
	if err := prob.Verify(tr, levels, ex.Out); err != nil {
		t.Fatal(err)
	}
	// Find an E node at level 2 and flip it to W: E-iff must fire.
	flipped := false
	for v := range ex.Out {
		if levels[v] == 2 && ex.Out[v] == LabelE {
			out := append([]Label(nil), ex.Out...)
			out[v] = LabelW
			if prob.Verify(tr, levels, out) == nil {
				t.Fatalf("node %d: removing forced E accepted", v)
			}
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no level-2 E node found; construction assumption broken")
	}
}

func TestLemma13SurvivorBound(t *testing.T) {
	// Lemma 13: after phase i with parameter γ_i, at most O(n'/γ_i) nodes of
	// level > i remain undecided. We check the concrete charging bound from
	// the proof: each surviving level-(i+1) node accounts for >= γ_i/2
	// terminated level-i nodes, so survivors(level>i) <= c * n / γ_i.
	h, err := graph.BuildHierarchical([]int{20, 30})
	if err != nil {
		t.Fatal(err)
	}
	tr := h.Tree
	levels := graph.ComputeLevels(tr, 2)
	gamma := 10
	sched := mustSchedule(t, 2, Coloring25, []int{gamma})
	ids := sim.DefaultIDs(tr.N(), 21)
	ex, err := RunAnalytic(tr, levels, sched, ids)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes that survive phase 1 are those deciding at round >= Start(2).
	survivors := 0
	for v := range ex.Rounds {
		if ex.Rounds[v] >= sched.Start(2) {
			survivors++
		}
	}
	bound := 8 * tr.N() / gamma
	if survivors > bound {
		t.Fatalf("survivors after phase 1 = %d > %d = 8n/γ", survivors, bound)
	}
}

func TestScheduleStartsIncreasing(t *testing.T) {
	sched := mustSchedule(t, 4, Coloring35, []int{2, 4, 8})
	prev := 0
	for i := 1; i <= 4; i++ {
		if sched.Start(i) <= prev {
			t.Fatalf("Start(%d) = %d not increasing", i, sched.Start(i))
		}
		prev = sched.Start(i)
	}
	if sched.DecisionRound(1) != sched.Start(1)+4 {
		t.Fatalf("DecisionRound(1) = %d", sched.DecisionRound(1))
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Problem: Problem{K: 0, Variant: Coloring25}},
		{Problem: Problem{K: 2, Variant: Coloring25}},                         // missing gammas
		{Problem: Problem{K: 2, Variant: Coloring25}, Gammas: []int{0}},       // γ < 1
		{Problem: Problem{K: 2, Variant: Variant(9)}, Gammas: []int{2}},       // bad variant
		{Problem: Problem{K: 3, Variant: Coloring35}, Gammas: []int{1, 2, 3}}, // too many
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	good := Params{Problem: Problem{K: 3, Variant: Coloring35}, Gammas: []int{1, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestLabelString(t *testing.T) {
	if LabelW.String() != "W" || LabelD.String() != "D" || LabelR.String() != "R" {
		t.Fatal("label names wrong")
	}
	if Coloring25.String() != "2.5-coloring" {
		t.Fatal("variant name wrong")
	}
}

func TestAnalyticNodeAveragedMatchesSim(t *testing.T) {
	h, err := graph.BuildHierarchical([]int{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	sched := mustSchedule(t, 2, Coloring35, []int{4})
	ex := runBoth(t, h.Tree, sched, 1234)
	if ex.NodeAveraged() <= 0 {
		t.Fatal("node-averaged complexity should be positive")
	}
	if ex.SumRounds() <= 0 {
		t.Fatal("sum of rounds should be positive")
	}
}

func TestGammas(t *testing.T) {
	got := Gammas(100, []float64{0.5, 1, 0, -1})
	if want := []int{10, 100, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("Gammas(100, ...) = %v, want %v", got, want)
	}
	if got := Gammas(1, nil); len(got) != 0 {
		t.Fatalf("Gammas with no exponents = %v", got)
	}
}

// TestFirstActive: the earliest-terminating active neighbor wins, the first
// in port order among ties; inactive neighbors never count.
func TestFirstActive(t *testing.T) {
	star, err := graph.BuildStar(6)
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{false, true, true, true, false, true}
	rounds := []int{0, 5, 3, 3, 1, 4}
	if u := FirstActive(star, 0, active, rounds); u != 2 {
		t.Fatalf("FirstActive = %d, want 2", u)
	}
	if u := FirstActive(star, 4, active, rounds); u != -1 {
		t.Fatalf("leaf with an inactive center: FirstActive = %d, want -1", u)
	}
}
