// Package labeling implements Section 10 of the paper: the k-hierarchical
// labeling LCL (Definition 63), its O(n^{1/k})-round solver via a
// (γ, ℓ, k)-decomposition (Lemma 65), and the k-hierarchical
// weight-augmented 2½-coloring (Definition 67) whose weight efficiency
// factor is x = 1 (Lemma 68), closing the landscape at Θ(n^{1/k})
// (Lemma 69) — in particular Θ(√n) for k = 2.
package labeling

import (
	"errors"
	"fmt"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Label is an output label of the k-hierarchical labeling problem: rake
// labels R_1 < ... < R_k interleaved with compress labels C_1 < ... <
// C_{k-1}, ordered R_1 < C_1 < R_2 < C_2 < ... < C_{k-1} < R_k.
type Label uint8

// Rake returns the label R_i (i >= 1).
func Rake(i int) Label { return Label(2*i - 1) }

// Compress returns the label C_i (i >= 1).
func Compress(i int) Label { return Label(2 * i) }

// IsRake reports whether l is a rake label.
func (l Label) IsRake() bool { return l%2 == 1 }

// Index returns i for R_i or C_i.
func (l Label) Index() int {
	if l.IsRake() {
		return (int(l) + 1) / 2
	}
	return int(l) / 2
}

// String names the label.
func (l Label) String() string {
	if l == 0 {
		return "none"
	}
	if l.IsRake() {
		return fmt.Sprintf("R%d", l.Index())
	}
	return fmt.Sprintf("C%d", l.Index())
}

// Output is one node's output for the k-hierarchical labeling problem: a
// label and the unique outgoing edge (OutNode = neighbor index, or -1).
type Output struct {
	Label   Label
	OutNode int
}

// Solution is a full labeling with round accounting.
type Solution struct {
	Out []Output
	// Rounds[v] is the round at which v fixed its (primary) output; the
	// solver charges a node γ+2 rounds per decomposition iteration, for a
	// worst case of O(k · n^{1/k}).
	sim.Rounds
	// Order is the decomposition's removal order. Every orientation target
	// comes after its source, so walking Order backwards resolves all copy
	// dependencies.
	Order []int32
}

// ErrInvalid wraps verifier failures; ErrInfeasible marks instances the
// solver cannot label within k iterations.
var (
	ErrInvalid    = errors.New("k-hierarchical labeling output invalid")
	ErrInfeasible = errors.New("k-hierarchical labeling solver infeasible on this instance")
)

// Solve computes a k-hierarchical labeling of t in worst-case O(k·n^{1/k})
// rounds (Lemma 65), reading it off the (γ, 4, k)-decomposition that
// decomp.Compute peels with γ from Lemma 72. pinned marks nodes that must
// survive until their neighborhood is gone and that point "outside" the
// graph (used by the weight-augmented problem, where pinned nodes orient
// toward an active node); pinned entries get OutNode = -1 here. pinned may
// be nil.
func Solve(t *graph.Tree, k int, pinned []bool) (*Solution, error) {
	n := t.N()
	if k < 1 {
		return nil, fmt.Errorf("labeling: k = %d < 1", k)
	}
	if pinned != nil && len(pinned) != n {
		return nil, fmt.Errorf("labeling: pinned length %d != n %d", len(pinned), n)
	}
	for v := range pinned {
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
	dec, err := decomp.Compute(t, pinned, decomp.Options{Gamma: gamma, Ell: 4, SplitPaths: true, MaxIters: k})
	if errors.Is(err, decomp.ErrUnfinished) {
		return nil, fmt.Errorf("%w: needs more than k=%d iterations (γ=%d)", ErrInfeasible, k, gamma)
	}
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Out:    make([]Output, n),
		Rounds: make([]int, n),
		Order:  dec.Order,
	}
	// A rake node of iteration i gets R_i and points at its one neighbor
	// still present when it leaves (rule 3: lower labels point at higher);
	// a pinned node leaves only once every tree neighbor is gone, so it
	// points outside (-1).
	gone := make([]bool, n)
	for _, v := range dec.Order {
		iter := int(dec.Assign[v].Iter)
		out := Output{Label: Rake(iter), OutNode: -1}
		for _, w := range t.NeighborsRaw(int(v)) {
			if !gone[w] {
				out.OutNode = int(w)
				break
			}
		}
		gone[v] = true
		sol.Out[v] = out
		sol.Rounds[v] = iter * (gamma + 2)
	}
	// A compress path of iteration i < k: its interior nodes get C_i, the
	// two next to an endpoint pointing at it; the endpoints, which leave
	// after the interior, are promoted to R_{i+1} and keep pointing at their
	// remaining outside neighbor.
	for _, path := range dec.Paths {
		iter := int(dec.Assign[path[0]].Iter)
		last := len(path) - 1
		sol.Out[path[0]].Label = Rake(iter + 1)
		sol.Out[path[last]].Label = Rake(iter + 1)
		for i := 1; i < last; i++ {
			out := Output{Label: Compress(iter), OutNode: -1}
			if i == 1 {
				out.OutNode = path[0]
			} else if i == last-1 {
				out.OutNode = path[last]
			}
			sol.Out[path[i]] = out
		}
	}
	return sol, nil
}

// Verify checks the six rules of Definition 63. pinned nodes are allowed
// (and required) to have OutNode = -1 pointing outside; their phantom edge
// counts as oriented.
func Verify(t *graph.Tree, k int, pinned []bool, out []Output) error {
	n := t.N()
	if len(out) != n {
		return fmt.Errorf("labeling: out length %d != n %d", len(out), n)
	}
	if pinned == nil {
		pinned = make([]bool, n)
	}
	oriented := func(u, v int) bool { return out[u].OutNode == v || out[v].OutNode == u }
	for v := 0; v < n; v++ {
		l := out[v].Label
		if l == 0 || l.Index() > k || (!l.IsRake() && l.Index() >= k) {
			return fmt.Errorf("%w: node %d label %v outside alphabet(k=%d)", ErrInvalid, v, l, k)
		}
		// Rule 1: edges adjacent to a rake label are oriented.
		if l.IsRake() {
			for _, w := range t.NeighborsRaw(v) {
				if !oriented(v, int(w)) {
					return fmt.Errorf("%w: unoriented edge {%d,%d} at rake node %d", ErrInvalid, v, int(w), v)
				}
			}
		}
		// Rule 2: at most one outgoing edge; compress nodes with two
		// compress neighbors have none.
		if out[v].OutNode >= 0 && !t.HasEdge(v, out[v].OutNode) {
			return fmt.Errorf("%w: node %d points at non-neighbor %d", ErrInvalid, v, out[v].OutNode)
		}
		if !l.IsRake() {
			compressNbrs := 0
			for _, w := range t.NeighborsRaw(v) {
				if !out[w].Label.IsRake() {
					compressNbrs++
				}
			}
			if compressNbrs >= 2 && out[v].OutNode != -1 {
				return fmt.Errorf("%w: interior compress node %d has an outgoing edge", ErrInvalid, v)
			}
		}
		// Rule 3: labels non-decreasing along orientation.
		if u := out[v].OutNode; u >= 0 && out[u].Label < l {
			return fmt.Errorf("%w: edge %d->%d decreases label %v -> %v", ErrInvalid, v, u, l, out[u].Label)
		}
		// Rules 4+5: compress components are paths; equal compress labels
		// only.
		if !l.IsRake() {
			same := 0
			for _, w := range t.NeighborsRaw(v) {
				lw := out[w].Label
				if !lw.IsRake() {
					if lw != l {
						return fmt.Errorf("%w: adjacent distinct compress labels %v,%v (%d,%d)",
							ErrInvalid, l, lw, v, int(w))
					}
					same++
				}
			}
			if same > 2 {
				return fmt.Errorf("%w: compress node %d has %d same-label neighbors (not a path)", ErrInvalid, v, same)
			}
		}
		// Rule 6: a rake node has at most one compress neighbor pointing at
		// it, and if one exists, all in-pointers carry strictly lower
		// labels.
		if l.IsRake() {
			compressIn := 0
			for _, w := range t.NeighborsRaw(v) {
				u := int(w)
				if out[u].OutNode == v && !out[u].Label.IsRake() {
					compressIn++
				}
			}
			if compressIn > 1 {
				return fmt.Errorf("%w: rake node %d has %d compress in-pointers", ErrInvalid, v, compressIn)
			}
			if compressIn == 1 {
				for _, w := range t.NeighborsRaw(v) {
					u := int(w)
					if out[u].OutNode == v && out[u].Label >= l {
						return fmt.Errorf("%w: in-pointer %d->%d label %v not below %v",
							ErrInvalid, u, v, out[u].Label, l)
					}
				}
			}
		}
	}
	return nil
}
