package hierarchy_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/inst"
	"repro/internal/labeling"
	"repro/internal/sim"
	"repro/internal/weighted"
)

// checkSplit requires the parts of s, the Split of tr by mask at depth k,
// to equal a fresh derivation: the in side of graph.InducedComponents(tr,
// mask) with graph.ComputeLevels of each component at depth k, and the in
// side of graph.InducedComponents(tr, ¬mask). Every component must pass
// Validate.
func checkSplit(t *testing.T, name string, s *hierarchy.Split, tr *graph.Tree, mask []bool, k int) {
	t.Helper()
	if s.Tree != tr || s.K != k || !slices.Equal(s.Mask, mask) {
		t.Fatalf("%s: split of another tree, depth %d or mask", name, s.K)
	}
	active, _ := graph.InducedComponents(tr, mask)
	weight, _ := graph.InducedComponents(tr, graph.Mask(tr, func(v int) bool { return !mask[v] }))
	sameComponents(t, name+" active", s.Active, active)
	sameComponents(t, name+" weight", s.Weight, weight)
	if len(s.Levels) != len(active) {
		t.Fatalf("%s: %d level vectors for %d active components", name, len(s.Levels), len(active))
	}
	for c, comp := range active {
		if want := graph.ComputeLevels(comp.Tree, k); !slices.Equal(s.Levels[c], want) {
			t.Fatalf("%s: active component %d levels %v, want %v", name, c, s.Levels[c], want)
		}
	}
}

// sameComponents requires got and want to list the same components: node
// lists, CSR arrays and IndexOf of every member. Each must pass Validate.
func sameComponents(t *testing.T, name string, got, want []*graph.Component) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, want %d", name, len(got), len(want))
	}
	for c, w := range want {
		g := got[c]
		if !slices.Equal(g.Nodes, w.Nodes) || !slices.Equal(g.Tree.Offsets(), w.Tree.Offsets()) ||
			!slices.Equal(g.Tree.AdjacencyRaw(), w.Tree.AdjacencyRaw()) {
			t.Fatalf("%s: component %d differs from a fresh InducedComponents", name, c)
		}
		if err := g.Tree.Validate(); err != nil {
			t.Fatalf("%s: component %d: %v", name, c, err)
		}
		for i, v := range g.Nodes {
			if g.IndexOf(v) != i {
				t.Fatalf("%s: component %d IndexOf(%d) = %d, want %d", name, c, v, g.IndexOf(v), i)
			}
		}
	}
}

// randomMask returns all-true, all-false and alternating masks for draws
// 0-3 and a mask of random density after.
func randomMask(rng *rand.Rand, n, draw int) []bool {
	density := rng.Float64()
	mask := make([]bool, n)
	for v := range mask {
		switch draw {
		case 0:
			mask[v] = true
		case 1:
		case 2, 3:
			mask[v] = v%2 == draw%2
		default:
			mask[v] = rng.Float64() < density
		}
	}
	return mask
}

// TestSplitOnRandomMasks cuts GW and ladder trees by random masks at
// k = 1..4. Beyond the parts, the analytic run on the Split must pass
// VerifyOn at its own depth, and RunAnalyticOn and VerifyOn must refuse a
// Split whose levels are at another depth instead of using them.
func TestSplitOnRandomMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 120; trial++ {
		n, seed := 1+rng.Intn(600), rng.Uint64()
		tr, err := graph.BuildLadder(n, seed)
		if trial%2 == 0 {
			tr, err = graph.BuildGaltonWatson(n, 2+trial%5, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		mask := randomMask(rng, n, trial%8)
		k := 1 + trial%4
		name := fmt.Sprintf("trial %d (n=%d k=%d)", trial, n, k)
		s, err := hierarchy.NewSplit(tr, mask, k)
		if err != nil {
			t.Fatal(err)
		}
		checkSplit(t, name, s, tr, mask, k)

		out := make([]hierarchy.Label, n)
		emit := func(v int, lab hierarchy.Label, _ int) { out[v] = lab }
		ids := sim.DefaultIDs(n, seed)
		for _, variant := range []hierarchy.Variant{hierarchy.Coloring25, hierarchy.Coloring35} {
			p := hierarchy.Problem{K: k, Variant: variant}
			sched, err := hierarchy.NewSchedule(hierarchy.Params{Problem: p, Gammas: slices.Repeat([]int{3}, k-1)})
			if err != nil {
				t.Fatal(err)
			}
			clear(out)
			if err := hierarchy.RunAnalyticOn(s, sched, ids, emit); err != nil {
				t.Fatalf("%s %v: %v", name, variant, err)
			}
			label := func(v int) hierarchy.Label { return out[v] }
			if err := p.VerifyOn(s, label); err != nil {
				t.Fatalf("%s %v: %v", name, variant, err)
			}

			other, err := hierarchy.NewSplit(tr, mask, k+1)
			if err != nil {
				t.Fatal(err)
			}
			clear(out)
			if err := hierarchy.RunAnalyticOn(other, sched, ids, emit); err == nil || slices.ContainsFunc(out, func(l hierarchy.Label) bool { return l != hierarchy.LabelNone }) {
				t.Fatalf("%s %v: RunAnalyticOn ran on a depth-%d split (error %v)", name, variant, k+1, err)
			}
			if err := p.VerifyOn(other, label); err == nil {
				t.Fatalf("%s %v: VerifyOn accepted a depth-%d split", name, variant, k+1)
			}
		}
	}
	path, err := graph.BuildPath(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hierarchy.NewSplit(path, []bool{true}, 1); err == nil {
		t.Fatal("NewSplit accepted a mask of the wrong length")
	}
}

// quickConstructions are the weighted (variant 2½ or 3½) and
// weight-augmented (variant 0) instances of the catalog's quick preset.
// TestSplitOnQuickConstructions requires the quick plans to name exactly
// these.
var quickConstructions = []struct {
	variant  hierarchy.Variant
	delta, d int
	lengths  []int
	budget   int
}{
	{hierarchy.Coloring25, 5, 2, []int{20, 100}, 2000},
	{hierarchy.Coloring25, 5, 2, []int{36, 222}, 8000},
	{hierarchy.Coloring25, 5, 2, []int{63, 507}, 32000},
	{hierarchy.Coloring25, 6, 2, []int{26, 76}, 2000},
	{hierarchy.Coloring25, 6, 2, []int{48, 166}, 8000},
	{hierarchy.Coloring25, 6, 2, []int{87, 367}, 32000},
	{hierarchy.Coloring25, 5, 2, []int{4, 9, 37}, 1333},
	{hierarchy.Coloring25, 5, 2, []int{6, 15, 59}, 5333},
	{hierarchy.Coloring25, 5, 2, []int{8, 23, 115}, 21333},
	{hierarchy.Coloring35, 7, 3, []int{6, 8}, 84},
	{hierarchy.Coloring35, 7, 3, []int{12, 16}, 312},
	{hierarchy.Coloring35, 7, 3, []int{23, 32}, 1152},
	{hierarchy.Coloring35, 9, 3, []int{7, 8}, 96},
	{hierarchy.Coloring35, 9, 3, []int{13, 16}, 336},
	{hierarchy.Coloring35, 9, 3, []int{25, 32}, 1248},
	{0, 5, 0, []int{44, 44}, 2000},
	{0, 5, 0, []int{89, 89}, 8000},
	{0, 5, 0, []int{178, 178}, 32000},
	{0, 5, 0, []int{11, 11, 11}, 1333},
	{0, 5, 0, []int{17, 17, 17}, 5333},
	{0, 5, 0, []int{27, 27, 27}, 21333},
}

// TestSplitOnQuickConstructions checks the Split of every quick-preset
// weighted and weight-augmented construction, built the way its sweep
// point builds it (Instance.Split, AugInstance.Split).
func TestSplitOnQuickConstructions(t *testing.T) {
	var planned []string
	for _, e := range exp.List() {
		if e.Plan == nil {
			continue
		}
		plan, err := e.Plan(exp.RunConfig{Preset: exp.PresetQuick})
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range plan.Tasks {
			if strings.HasPrefix(task.InstanceKey, string(inst.KindWeighted)+"(") || strings.HasPrefix(task.InstanceKey, string(inst.KindAug)+"(") {
				planned = append(planned, task.InstanceKey)
			}
		}
	}
	var listed []string
	for _, c := range quickConstructions {
		k := len(c.lengths)
		var tr *graph.Tree
		var mask []bool
		var s *hierarchy.Split
		var key inst.Key
		if c.variant == 0 {
			in, err := labeling.BuildAugInstance(k, c.delta, c.lengths, c.budget)
			if err != nil {
				t.Fatal(err)
			}
			if s, err = in.Split(); err != nil {
				t.Fatal(err)
			}
			tr, mask = in.Tree, graph.Mask(in.Tree, func(v int) bool { return !in.Weight[v] })
			key = inst.AugKey(k, c.delta, c.lengths, c.budget)
		} else {
			p := weighted.Problem{Variant: c.variant, Delta: c.delta, D: c.d, K: k}
			in, err := weighted.BuildInstance(p, c.lengths, c.budget)
			if err != nil {
				t.Fatal(err)
			}
			if s, err = in.Split(); err != nil {
				t.Fatal(err)
			}
			tr, mask = in.Tree, graph.Mask(in.Tree, func(v int) bool { return in.Inputs[v] == weighted.InputActive })
			key = inst.WeightedKey(p, c.lengths, c.budget)
		}
		listed = append(listed, key.String())
		checkSplit(t, key.String(), s, tr, mask, k)
	}
	slices.Sort(planned)
	slices.Sort(listed)
	if !slices.Equal(planned, listed) {
		t.Fatalf("quick plans build %v, the table lists %v", planned, listed)
	}
}
