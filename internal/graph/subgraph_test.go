package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInducedComponentsSplitsCaterpillar(t *testing.T) {
	// Mask out the spine of a caterpillar: each leg becomes its own
	// component, and the spine is the one component of the other side.
	c, err := BuildCaterpillar(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, c.N())
	for v := 5; v < c.N(); v++ { // spine nodes are 0..4
		mask[v] = true
	}
	comps, spine := InducedComponents(c, mask)
	if len(comps) != 5 {
		t.Fatalf("got %d components, want 5", len(comps))
	}
	if len(spine) != 1 || spine[0].Tree.N() != 5 {
		t.Fatalf("got %d components off the mask, want the 5-node spine", len(spine))
	}
	for _, comp := range comps {
		if comp.Tree.N() != 3 {
			t.Fatalf("component size %d, want 3", comp.Tree.N())
		}
		if err := comp.Tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInducedComponentsIndexRoundTrip(t *testing.T) {
	p, err := BuildPath(10)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, 10)
	for _, v := range []int{2, 3, 4, 7, 8} {
		mask[v] = true
	}
	comps, rest := InducedComponents(p, mask)
	if len(comps) != 2 || len(rest) != 3 {
		t.Fatalf("got %d and %d components, want 2 and 3", len(comps), len(rest))
	}
	for _, comp := range append(comps, rest...) {
		for i, v := range comp.Nodes {
			if comp.IndexOf(v) != i {
				t.Fatalf("IndexOf(%d) = %d, want %d", v, comp.IndexOf(v), i)
			}
		}
	}
	// Nodes outside the mask map to -1, and masked nodes outside it.
	if comps[0].IndexOf(0) != -1 || rest[0].IndexOf(2) != -1 {
		t.Fatal("IndexOf of a node of the other side should be -1")
	}
}

func TestInducedComponentsEmptyMask(t *testing.T) {
	p, err := BuildPath(5)
	if err != nil {
		t.Fatal(err)
	}
	in, out := InducedComponents(p, make([]bool, 5))
	if len(in) != 0 {
		t.Fatalf("got %d components for empty mask", len(in))
	}
	if len(out) != 1 || len(out[0].Nodes) != 5 {
		t.Fatalf("got %d components for the complement of an empty mask, want the whole path", len(out))
	}
}

func TestQuickInducedComponentsPartition(t *testing.T) {
	// Components partition the masked nodes, edges are preserved exactly,
	// and every component is a valid tree.
	f := func(seed int64, bits uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		tr := randomTree(rng, n)
		mask := make([]bool, n)
		covered := 0
		for v := 0; v < n; v++ {
			if bits>>(uint(v)%64)&1 == 1 || rng.Intn(3) == 0 {
				mask[v] = true
				covered++
			}
		}
		comps, _ := InducedComponents(tr, mask)
		seen := make(map[int]bool)
		total := 0
		for _, comp := range comps {
			if comp.Tree.Validate() != nil {
				return false
			}
			total += len(comp.Nodes)
			for i, v := range comp.Nodes {
				if seen[v] || !mask[v] {
					return false
				}
				seen[v] = true
				// Edge preservation: neighbors within the component match
				// masked neighbors in the parent.
				for _, w := range tr.NeighborsRaw(v) {
					u := int(w)
					j := comp.IndexOf(u)
					if mask[u] && sameComponent(comp, u) && j >= 0 {
						if !comp.Tree.HasEdge(i, j) {
							return false
						}
					}
				}
			}
		}
		return total == covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sameComponent(c *Component, parent int) bool { return c.IndexOf(parent) >= 0 }
