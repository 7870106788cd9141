package weighted

import (
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/sim"
)

// TestVerifierTotalOnGarbage: arbitrary outputs must never panic the
// verifier, and structurally impossible kinds are always rejected.
func TestVerifierTotalOnGarbage(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{5, 6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		out := make([]Output, inst.Tree.N())
		for v := range out {
			out[v] = Output{
				Kind:  Kind(rng.Intn(6)),
				Label: hierarchy.Label(rng.Intn(9)),
			}
		}
		err := p.Verify(split, out) // must not panic
		// An active node with a weight kind (or vice versa) must be caught.
		broken := false
		for v := range out {
			if inst.Inputs[v] == InputActive && out[v].Kind != KindActive {
				broken = true
			}
			if inst.Inputs[v] == InputWeight && out[v].Kind == KindActive {
				broken = true
			}
		}
		if broken && err == nil {
			t.Fatal("kind-mismatched garbage accepted")
		}
	}
}

// TestVerifierCatchesAllDecliningRoots: declining any weight root adjacent
// to an active host is always property-2 violation.
func TestVerifierCatchesAllDecliningRoots(t *testing.T) {
	p := prob25(t, 5, 2, 2)
	inst, err := BuildInstance(p, []int{6, 8}, 300)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 7)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	res, err := SolvePoly(split, p, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range weightRoots(inst) {
		out := append([]Output(nil), res.Out...)
		out[root] = Output{Kind: KindDecline}
		if p.Verify(split, out) == nil {
			t.Fatalf("declining root %d accepted", root)
		}
	}
}

// TestSolveLogStarDeterministic: identical seeds produce identical
// executions (no hidden global state).
func TestSolveLogStarDeterministic(t *testing.T) {
	p := prob35(t, 7, 3, 2)
	inst, err := BuildInstance(p, []int{6, 10}, 400)
	if err != nil {
		t.Fatal(err)
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 3)
	split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
	a, err := SolveLogStar(split, p, ids, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveLogStar(split, p, ids, 16)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Out {
		if a.Out[v] != b.Out[v] || a.Rounds[v] != b.Rounds[v] {
			t.Fatalf("node %d differs across identical runs", v)
		}
	}
}

// TestWeighted35CopySetShrinks: Lemma 52 — the Copy set C'(v) within a
// weight tree of w nodes has size O(w^{x'}), strictly sublinear.
func TestWeighted35CopySetShrinks(t *testing.T) {
	p := prob35(t, 7, 3, 2)
	var prevFrac float64 = 1
	for _, budget := range []int{1000, 8000, 64000} {
		inst, err := BuildInstance(p, []int{4, 8}, budget)
		if err != nil {
			t.Fatal(err)
		}
		ids := sim.DefaultIDs(inst.Tree.N(), 5)
		split := mustSplit(t, inst.Tree, inst.Inputs, p.K)
		res, err := SolveLogStar(split, p, ids, 8)
		if err != nil {
			t.Fatal(err)
		}
		weightN, copies := 0, 0
		for v, o := range res.Out {
			if inst.Inputs[v] == InputWeight {
				weightN++
				if o.Kind == KindCopy {
					copies++
				}
			}
		}
		frac := float64(copies) / float64(weightN)
		if frac >= prevFrac {
			t.Fatalf("copy fraction %.4f did not shrink (prev %.4f) at budget %d",
				frac, prevFrac, budget)
		}
		prevFrac = frac
	}
}
