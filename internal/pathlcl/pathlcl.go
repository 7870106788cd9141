// Package pathlcl implements the decidability machinery that Section 11 of
// the paper bottoms out in: the classification of LCLs on paths (Lemma 81,
// Observation 78).
//
// Path LCLs are given by a finite output alphabet and a symmetric
// compatibility relation on adjacent outputs (no inputs; endpoints
// unconstrained). For this fragment the deterministic worst-case complexity
// on paths is exactly one of O(1), Θ(log* n), Θ(n), or unsolvable, decided
// by Classify:
//
//   - unsolvable       iff the compatibility relation is empty (n >= 2);
//   - O(1)             iff some label is self-compatible (a constant labeling
//     is valid; conversely, an O(1) algorithm is order-
//     invariant on middle nodes and must label two adjacent
//     indistinguishable nodes identically);
//   - Θ(log* n)        iff no self-loop but some compatibility component
//     contains an odd closed walk (non-bipartite: symmetry
//     can be broken with a 3-coloring-style rendezvous);
//   - Θ(n)             otherwise (every component bipartite: the labeling
//     carries a global 2-coloring-like parity).
//
// By Feuilloley's transfer (Lemma 16 of the paper), the deterministic
// node-averaged complexity on paths coincides with the worst case for the
// Θ(n) and Θ(log* n) classes, so Classify also reports the node-averaged
// class.
package pathlcl

import (
	"errors"
	"fmt"
)

// Class is a worst-case complexity class of a path LCL.
type Class uint8

// The possible classes.
const (
	ClassUnsolvable Class = iota + 1
	ClassConstant         // O(1)
	ClassLogStar          // Θ(log* n)
	ClassLinear           // Θ(n)
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassUnsolvable:
		return "unsolvable"
	case ClassConstant:
		return "O(1)"
	case ClassLogStar:
		return "Θ(log* n)"
	case ClassLinear:
		return "Θ(n)"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Problem is a path LCL: labels 0..Labels-1 with a symmetric compatibility
// relation.
type Problem struct {
	Name   string
	Labels int
	// Allowed[a][b] reports whether labels a and b may appear on adjacent
	// nodes. Must be symmetric.
	Allowed [][]bool
}

// ErrBadProblem indicates a malformed problem description.
var ErrBadProblem = errors.New("malformed path LCL")

// Validate checks shape and symmetry.
func (p Problem) Validate() error {
	if p.Labels < 1 {
		return fmt.Errorf("%w: %d labels", ErrBadProblem, p.Labels)
	}
	if len(p.Allowed) != p.Labels {
		return fmt.Errorf("%w: Allowed has %d rows", ErrBadProblem, len(p.Allowed))
	}
	for a := range p.Allowed {
		if len(p.Allowed[a]) != p.Labels {
			return fmt.Errorf("%w: row %d has %d entries", ErrBadProblem, a, len(p.Allowed[a]))
		}
	}
	for a := 0; a < p.Labels; a++ {
		for b := 0; b < p.Labels; b++ {
			if p.Allowed[a][b] != p.Allowed[b][a] {
				return fmt.Errorf("%w: relation not symmetric at (%d,%d)", ErrBadProblem, a, b)
			}
		}
	}
	return nil
}

// Classify decides the deterministic worst-case (= node-averaged, by
// Lemma 16) complexity class of the problem on paths.
func Classify(p Problem) (Class, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	hasEdge := false
	for a := 0; a < p.Labels; a++ {
		for b := a; b < p.Labels; b++ {
			if p.Allowed[a][b] {
				hasEdge = true
			}
		}
		if p.Allowed[a][a] {
			return ClassConstant, nil
		}
	}
	if !hasEdge {
		return ClassUnsolvable, nil
	}
	if hasOddClosedWalk(p) {
		return ClassLogStar, nil
	}
	return ClassLinear, nil
}

// hasOddClosedWalk reports whether the compatibility graph (self-loops
// excluded by the caller) has a non-bipartite connected component.
func hasOddClosedWalk(p Problem) bool {
	color := make([]int, p.Labels) // 0 unvisited, 1/2 sides
	for s := 0; s < p.Labels; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for b := 0; b < p.Labels; b++ {
				if !p.Allowed[a][b] {
					continue
				}
				if color[b] == 0 {
					color[b] = 3 - color[a]
					queue = append(queue, b)
				} else if color[b] == color[a] {
					return true
				}
			}
		}
	}
	return false
}

// Catalogue returns the classical path LCLs used in the experiments
// (Theorem 7 demonstration table).
func Catalogue() []Problem {
	mk := func(name string, labels int, pairs [][2]int) Problem {
		allowed := make([][]bool, labels)
		for i := range allowed {
			allowed[i] = make([]bool, labels)
		}
		for _, pr := range pairs {
			allowed[pr[0]][pr[1]] = true
			allowed[pr[1]][pr[0]] = true
		}
		return Problem{Name: name, Labels: labels, Allowed: allowed}
	}
	return []Problem{
		mk("trivial (any labeling)", 2, [][2]int{{0, 0}, {0, 1}, {1, 1}}),
		mk("consistent value", 2, [][2]int{{0, 0}, {1, 1}}),
		mk("2-coloring", 2, [][2]int{{0, 1}}),
		mk("3-coloring", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
		mk("at most one color change (weak)", 2, [][2]int{{0, 0}, {0, 1}, {1, 1}}),
		mk("no solution", 2, nil),
		mk("5-cycle walk (odd, loopless)", 5,
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}),
		mk("4-cycle walk (even, loopless)", 4,
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
	}
}
