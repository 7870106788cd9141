// Package weighted implements the paper's primary contribution: the weighted
// LCLs Π^Z_{Δ,d,k} for Z ∈ {2½, 3½} (Definition 22), their verifier, the
// weighted lower-bound construction (Definition 25), and the two upper-bound
// algorithms — A_poly for Π^{2.5} (Section 7.1) and the generic algorithm
// for Π^{3.5} (Section 8.2).
//
// Each node has input Active or Weight. Active components must solve
// k-hierarchical Z-coloring among themselves; weight nodes output Decline,
// Connect, or Copy, where Copy carries a secondary output from the active
// alphabet. The weight machinery forces many weight nodes to wait for the
// active node they are attached to, which lifts the node-averaged complexity
// of the hierarchical problems by a tunable efficiency factor
// x = log(Δ−d−1)/log(Δ−1) — the engine behind the landscape-density
// theorems (Theorems 1–6).
package weighted

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// NodeInput marks a node Active or Weight.
type NodeInput uint8

// Input labels of Π^Z_{Δ,d,k}.
const (
	InputActive NodeInput = iota
	InputWeight
)

// String names the input.
func (i NodeInput) String() string {
	switch i {
	case InputActive:
		return "Active"
	case InputWeight:
		return "Weight"
	}
	return fmt.Sprintf("NodeInput(%d)", uint8(i))
}

// NewSplit cuts t by its inputs into the active components, with their
// Definition-8 levels at depth k, and the weight components: the one input
// of SolvePoly, SolveLogStar and Problem.Verify. It rejects an input that
// is neither Active nor Weight.
func NewSplit(t *graph.Tree, inputs []NodeInput, k int) (*hierarchy.Split, error) {
	if len(inputs) != t.N() {
		return nil, fmt.Errorf("weighted: %d inputs for n=%d", len(inputs), t.N())
	}
	active := make([]bool, len(inputs))
	for v, in := range inputs {
		switch in {
		case InputActive:
			active[v] = true
		case InputWeight:
		default:
			return nil, fmt.Errorf("weighted: node %d has unknown input %v", v, in)
		}
	}
	return hierarchy.NewSplit(t, active, k)
}

// Kind is the primary output kind of a node.
type Kind uint8

// Output kinds. Active nodes always have KindActive (their payload is the
// hierarchical label); weight nodes have one of the other three.
const (
	KindNone Kind = iota
	KindActive
	KindDecline
	KindConnect
	KindCopy
)

var kindNames = [...]string{"none", "Active", "Decline", "Connect", "Copy"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Output is a node's output: for active nodes, Label is the k-hierarchical
// Z-coloring output; for Copy weight nodes, Label is the secondary output.
type Output struct {
	Kind  Kind
	Label hierarchy.Label
}

// Problem describes an instance family Π^Z_{Δ,d,k}.
type Problem struct {
	// Variant selects 2½ (Coloring25) or 3½ (Coloring35).
	Variant hierarchy.Variant
	// Delta is the maximum-degree bound; must satisfy Delta >= D+3.
	Delta int
	// D is the decline-budget parameter d.
	D int
	// K is the hierarchy depth.
	K int
}

// Validate checks Definition 22's parameter constraints.
func (p Problem) Validate() error {
	if err := (hierarchy.Problem{K: p.K, Variant: p.Variant}).Validate(); err != nil {
		return err
	}
	if p.D < 1 {
		return fmt.Errorf("weighted: d = %d < 1", p.D)
	}
	if p.Delta < p.D+3 {
		return fmt.Errorf("weighted: Δ = %d < d+3 = %d", p.Delta, p.D+3)
	}
	return nil
}

// ErrInvalid wraps all verifier failures.
var ErrInvalid = errors.New("weighted output invalid")

func bad(v int, format string, args ...any) error {
	return fmt.Errorf("%w: node %d: %s", ErrInvalid, v, fmt.Sprintf(format, args...))
}

// Verify checks an output assignment on the Split of an instance against
// the five properties of Definition 22. The Split's mask is the instance's
// input: every node is Active or Weight, since NewSplit rejects any other
// input.
func (p Problem) Verify(s *hierarchy.Split, out []Output) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if s.K != p.K {
		return fmt.Errorf("weighted: split has levels at depth %d, want k=%d", s.K, p.K)
	}
	t, active := s.Tree, s.Mask
	n := t.N()
	if len(out) != n {
		return fmt.Errorf("weighted: %d outputs for n=%d", len(out), n)
	}
	// Basic shape.
	for v := 0; v < n; v++ {
		if active[v] {
			if out[v].Kind != KindActive {
				return bad(v, "active node has kind %v", out[v].Kind)
			}
			continue
		}
		switch out[v].Kind {
		case KindDecline, KindConnect, KindCopy:
		default:
			return bad(v, "weight node has kind %v", out[v].Kind)
		}
	}
	// Property 1: active components solve k-hierarchical Z-coloring.
	hp := hierarchy.Problem{K: p.K, Variant: p.Variant}
	label := func(v int) hierarchy.Label { return out[v].Label }
	if err := hp.VerifyOn(s, label); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Properties 2-5 on weight nodes.
	for v := 0; v < n; v++ {
		if active[v] {
			continue
		}
		switch out[v].Kind {
		case KindDecline:
			// Property 2: weight node adjacent to an active node must output
			// Connect or Copy.
			for _, w := range t.NeighborsRaw(v) {
				if active[w] {
					return bad(v, "declining weight node adjacent to active node %d (property 2)", w)
				}
			}
		case KindConnect:
			// Property 3: at least two neighbors active or Connect.
			support := 0
			for _, w := range t.NeighborsRaw(v) {
				if active[w] || out[w].Kind == KindConnect {
					support++
				}
			}
			if support < 2 {
				return bad(v, "Connect with %d active/Connect neighbors, need 2 (property 3)", support)
			}
		case KindCopy:
			// Property 4: at most d Decline neighbors.
			declines := 0
			for _, w := range t.NeighborsRaw(v) {
				if out[w].Kind == KindDecline {
					declines++
				}
			}
			if declines > p.D {
				return bad(v, "Copy with %d > d=%d Decline neighbors (property 4)", declines, p.D)
			}
			// Property 5: secondary output matches an active neighbor if one
			// exists, and matches adjacent Copy nodes.
			hasActive := false
			matchesActive := false
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if active[u] {
					hasActive = true
					if out[u].Label == out[v].Label {
						matchesActive = true
					}
				}
				if !active[u] && out[u].Kind == KindCopy &&
					out[u].Label != out[v].Label {
					return bad(v, "adjacent Copy nodes with secondary %v vs %v (property 5)",
						out[v].Label, out[u].Label)
				}
			}
			if hasActive && !matchesActive {
				return bad(v, "Copy secondary %v matches no active neighbor (property 5)", out[v].Label)
			}
		}
	}
	return nil
}
