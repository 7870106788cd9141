// Package hierarchy implements the k-hierarchical 2½- and 3½-coloring LCLs
// (Definitions 8 and 9 of the paper), an independent verifier for their
// constraints, and the generic phase algorithm of Section 4.1 — both as an
// honest LOCAL state machine (package sim) and as an analytic round-accounting
// mirror that produces identical outputs and termination rounds without
// simulating message passing (used for large parameter sweeps; tests assert
// the two agree exactly).
package hierarchy

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Label is an output label of the hierarchical coloring problems.
type Label uint8

// Output labels (Definitions 8 and 9). LabelNone is the "no output yet"
// sentinel and never a valid final output.
const (
	LabelNone Label = iota
	LabelW          // White (2-coloring color)
	LabelB          // Black (2-coloring color)
	LabelE          // Exempt
	LabelD          // Decline
	LabelR          // Red (3-coloring color, 3½ only)
	LabelG          // Green (3-coloring color, 3½ only)
	LabelY          // Yellow (3-coloring color, 3½ only)
)

var labelNames = [...]string{"none", "W", "B", "E", "D", "R", "G", "Y"}

// String returns the paper's name for the label.
func (l Label) String() string {
	if int(l) < len(labelNames) {
		return labelNames[l]
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// IsTriColor reports whether l is one of the 3-coloring colors R, G, Y.
func (l Label) IsTriColor() bool { return l == LabelR || l == LabelG || l == LabelY }

// IsBiColor reports whether l is one of the 2-coloring colors W, B.
func (l Label) IsBiColor() bool { return l == LabelW || l == LabelB }

// Variant selects between the 2½- and 3½-coloring families.
type Variant uint8

// The two problem families.
const (
	Coloring25 Variant = iota + 1 // k-hierarchical 2½-coloring (Definition 8)
	Coloring35                    // k-hierarchical 3½-coloring (Definition 9)
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Coloring25:
		return "2.5-coloring"
	case Coloring35:
		return "3.5-coloring"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Problem is a k-hierarchical Z-coloring instance description.
type Problem struct {
	K       int
	Variant Variant
}

// Validate checks the problem parameters.
func (p Problem) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("hierarchy: k = %d < 1", p.K)
	}
	if p.Variant != Coloring25 && p.Variant != Coloring35 {
		return fmt.Errorf("hierarchy: unknown variant %d", p.Variant)
	}
	return nil
}

// ErrInvalidOutput is wrapped by all verifier failures.
var ErrInvalidOutput = errors.New("output violates problem constraints")

// violation builds a verifier error.
func violation(v int, format string, args ...any) error {
	return fmt.Errorf("%w: node %d: %s", ErrInvalidOutput, v, fmt.Sprintf(format, args...))
}

// VerifyOn checks the labeling label(v) on every active component of s
// against the component's levels. It fails on a Split whose levels are not
// at depth p.K.
func (p Problem) VerifyOn(s *Split, label func(v int) Label) error {
	if err := s.depthError(p.K); err != nil {
		return err
	}
	for c, comp := range s.Active {
		out := make([]Label, len(comp.Nodes))
		for i, v := range comp.Nodes {
			out[i] = label(v)
		}
		if err := p.Verify(comp.Tree, s.Levels[c], out); err != nil {
			return fmt.Errorf("active component at node %d: %w", comp.Nodes[0], err)
		}
	}
	return nil
}

// Verify checks an output labeling against the constraints of Definition 8
// (2½) or Definition 9 (3½). levels must be the Definition-8 levels (use
// graph.ComputeLevels(t, p.K)). It returns nil iff the labeling is valid.
func (p Problem) Verify(t *graph.Tree, levels []int, out []Label) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(levels) != t.N() || len(out) != t.N() {
		return fmt.Errorf("hierarchy: levels/out length mismatch (n=%d)", t.N())
	}
	k := p.K
	for v := 0; v < t.N(); v++ {
		l, lab := levels[v], out[v]
		if lab == LabelNone {
			return violation(v, "no output")
		}
		// Label alphabet restrictions.
		if p.Variant == Coloring25 && lab.IsTriColor() {
			return violation(v, "label %v not in 2½ alphabet", lab)
		}
		if p.Variant == Coloring35 && l < k && lab.IsTriColor() {
			return violation(v, "level %d < k uses 3-coloring label %v", l, lab)
		}
		switch {
		case l == 1 && lab == LabelE:
			return violation(v, "level 1 labeled E")
		case l == k+1 && lab != LabelE:
			return violation(v, "level k+1 labeled %v, must be E", lab)
		}
		if l == k {
			if lab == LabelD {
				return violation(v, "level k labeled D")
			}
			if p.Variant == Coloring35 && lab.IsBiColor() {
				return violation(v, "level k labeled %v in 3½-coloring", lab)
			}
		}
		// Exempt rule. For levels 2..k-1: E iff adjacent to a lower-level
		// node labeled W, B, or E. For level k, Definitions 8/9 additionally
		// say a node "may output E only if its lower level neighbours did
		// not output D"; read together with the iff-rule, the consistent
		// interpretation (the one the paper's constructions exercise, where
		// each node has a single lower-level pendant) is:
		//   level-k node is E iff (some lower neighbor is W/B/E) and (no
		//   lower neighbor is D).
		if l >= 2 && l <= k {
			hasLowerColored, hasLowerDeclined := false, false
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if levels[u] >= l {
					continue
				}
				if out[u].IsBiColor() || out[u] == LabelE {
					hasLowerColored = true
				}
				if out[u] == LabelD {
					hasLowerDeclined = true
				}
			}
			wantE := hasLowerColored
			if l == k {
				wantE = hasLowerColored && !hasLowerDeclined
			}
			if (lab == LabelE) != wantE {
				return violation(v, "level %d exempt rule violated (label %v, lower-colored=%v, lower-declined=%v)",
					l, lab, hasLowerColored, hasLowerDeclined)
			}
		}
		// W/B nodes: no same-level neighbor with the same color or D.
		if lab.IsBiColor() {
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if levels[u] == l && (out[u] == lab || out[u] == LabelD) {
					return violation(v, "label %v conflicts with same-level neighbor %d (%v)",
						lab, u, out[u])
				}
			}
		}
		// 3-coloring properness: adjacent nodes must not share an R/G/Y
		// label (Definition 9; only level-k nodes can carry these labels).
		if lab.IsTriColor() {
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if out[u] == lab {
					return violation(v, "3-color %v repeated on neighbor %d", lab, u)
				}
			}
		}
	}
	return nil
}
