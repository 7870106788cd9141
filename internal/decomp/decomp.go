// Package decomp implements the rake-and-compress tree decompositions the
// paper's algorithms build on: the (γ, ℓ, L)-decomposition of Definition 71
// (computable in O(k·n^{1/k}) rounds for γ ≈ n^{1/k}, or O(log n) rounds for
// γ = 1; Lemma 72) and the relaxed (γ, ℓ, i)-decomposition of Definition 43
// that does not split long compress paths.
//
// Compute is the repository's only rake-and-compress peel. It drives (a) the
// k-hierarchical labeling solver of Lemma 65 (labeling.Solve), which reads
// its labels and orientations off a (γ, 4, k)-decomposition whose pinned
// nodes are the weight-augmented problem's active-adjacent weight nodes,
// and (b) the round accounting of the weight-node side of the Π^{3.5}
// algorithm (Section 8). There a Decline node terminates a constant number
// of rounds after the iteration in which it is assigned a layer, and the
// number of still-unassigned nodes decays geometrically with the iteration,
// so the charge is O(1) node-averaged. This layer-proportional charge
// substitutes for the Fast Decomposition Algorithm of [BBK+23a].
//
// The maximal runs of degree-2 nodes that Compute cuts into compress paths
// come from graph.InducedPaths, the same maximal-path walk that yields the
// Definition-8 phase segments of hierarchy.RunAnalytic.
package decomp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Kind distinguishes rake and compress layers.
type Kind uint8

// Layer kinds.
const (
	KindNone     Kind = iota
	KindRake          // removed as a degree-<=1 node
	KindCompress      // removed as part of a long degree-2 path
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRake:
		return "rake"
	case KindCompress:
		return "compress"
	default:
		return "none"
	}
}

// Assignment records where a node landed in the decomposition.
type Assignment struct {
	Kind Kind
	// Iter is the 1-based iteration (layer number).
	Iter int32
	// Sub is the 1-based rake sub-layer within the iteration (1..γ); 0 for
	// compress assignments.
	Sub int32
	// PathID identifies the compress path the node belongs to (-1 for rake).
	PathID int32
}

// Decomposition is the result of Compute.
type Decomposition struct {
	Assign []Assignment
	// Order lists the nodes in removal order: each rake sub-layer in node
	// index order, then each compress path of the iteration with its
	// interior nodes first (in path order) and its two endpoints last. The
	// neighbors of v that come after v in Order are exactly those still
	// present when v was removed.
	Order []int32
	// Iters is the number of iterations used.
	Iters int
	// Paths lists the node sets of compress paths, ordered along the path;
	// Assign[v].PathID indexes into this slice.
	Paths [][]int
}

// Options configures Compute.
type Options struct {
	// Gamma is the number of rake sub-rounds per iteration (γ >= 1).
	Gamma int
	// Ell is the minimum compress-path length (ℓ >= 1). Runs of degree-2
	// nodes shorter than Ell are left for later iterations.
	Ell int
	// SplitPaths selects the full Definition-71 behavior: long degree-2 runs
	// are cut into compress paths of length in [Ell, 2*Ell] with single
	// promoted separator nodes left alive in between. Without it, whole runs
	// become one compress path (the relaxed decomposition of Definition 43).
	SplitPaths bool
	// MaxIters aborts if the decomposition does not finish (safety bound);
	// 0 means 4n+16.
	MaxIters int
}

// ErrBadOptions indicates invalid decomposition options; ErrUnfinished
// reports a peel that did not finish within Options.MaxIters iterations.
var (
	ErrBadOptions = errors.New("invalid decomposition options")
	ErrUnfinished = errors.New("decomp: not finished")
)

// GammaForK returns the rake width γ = ⌈n^{1/k} · (ℓ/2)^{1−1/k}⌉ of
// Lemma 72, which yields a (γ, ℓ, k)-decomposition (at most k iterations).
func GammaForK(n, ell, k int) int {
	if n < 1 || k < 1 {
		return 1
	}
	inv := 1 / float64(k)
	g := int(math.Pow(float64(n), inv)*math.Pow(float64(ell)/2, 1-inv)) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// Compute peels tree t into rake and compress layers. pinned (nil for none)
// marks nodes with a phantom edge to the outside of t: a pinned node counts
// one neighbor more, so it is raked only once all its tree neighbors are
// gone, and it never joins a compress path.
func Compute(t *graph.Tree, pinned []bool, opts Options) (*Decomposition, error) {
	if opts.Gamma < 1 {
		return nil, fmt.Errorf("%w: gamma = %d", ErrBadOptions, opts.Gamma)
	}
	if opts.Ell < 1 {
		return nil, fmt.Errorf("%w: ell = %d", ErrBadOptions, opts.Ell)
	}
	n := t.N()
	if pinned != nil && len(pinned) != n {
		return nil, fmt.Errorf("decomp: pinned length %d != n %d", len(pinned), n)
	}
	maxIters := opts.MaxIters
	if maxIters == 0 {
		maxIters = 4*n + 16
	}
	d := &Decomposition{Assign: make([]Assignment, n), Order: make([]int32, 0, n)}
	alive := make([]bool, n)
	deg := make([]int32, n) // alive neighbors, plus one for a pinned node
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = int32(t.Degree(v))
		if pinned != nil && pinned[v] {
			deg[v]++
		}
	}
	mid := func(v int) bool { return alive[v] && deg[v] == 2 && (pinned == nil || !pinned[v]) }
	take := func(v int, a Assignment) {
		d.Assign[v] = a
		d.Order = append(d.Order, int32(v))
	}
	drop := func(v int) {
		alive[v] = false
		for _, w := range t.NeighborsRaw(v) {
			if alive[w] {
				deg[w]--
			}
		}
	}
	for iter := int32(1); len(d.Order) < n; iter++ {
		if int(iter) > maxIters {
			return nil, fmt.Errorf("%w after %d iterations (%d nodes left)", ErrUnfinished, maxIters, n-len(d.Order))
		}
		d.Iters = int(iter)
		// Rake sub-rounds: every node of degree <= 1 at the start of the
		// sub-round leaves in it.
		for sub := int32(1); int(sub) <= opts.Gamma && len(d.Order) < n; sub++ {
			batch := len(d.Order)
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= 1 {
					take(v, Assignment{Kind: KindRake, Iter: iter, Sub: sub, PathID: -1})
				}
			}
			for _, v := range d.Order[batch:] {
				drop(int(v))
			}
		}
		if len(d.Order) == n {
			break
		}
		// Compress: maximal runs of alive degree-2 nodes.
		for _, run := range graph.InducedPaths(t, mid) {
			if len(run) < opts.Ell {
				continue
			}
			chunks := [][]int{run}
			if opts.SplitPaths {
				chunks = splitRun(run, opts.Ell)
			}
			for _, chunk := range chunks {
				a := Assignment{Kind: KindCompress, Iter: iter, PathID: int32(len(d.Paths))}
				d.Paths = append(d.Paths, chunk)
				// The interior nodes leave first, then the two endpoints.
				last := len(chunk) - 1
				for i := 1; i < last; i++ {
					take(chunk[i], a)
				}
				take(chunk[0], a)
				if last > 0 {
					take(chunk[last], a)
				}
				for _, v := range chunk {
					drop(v)
				}
			}
		}
	}
	return d, nil
}

// splitRun cuts a run of degree-2 nodes into chunks of length in [ell, 2ell]
// separated by single promoted nodes (which stay alive and join a later
// layer): while more than 2ℓ nodes remain, emit an ℓ-node chunk and skip one
// separator; the final chunk then has between ℓ and 2ℓ nodes.
func splitRun(run []int, ell int) [][]int {
	var chunks [][]int
	for len(run) > 2*ell {
		chunks = append(chunks, run[:ell])
		run = run[ell+1:] // skip one promoted separator node
	}
	if len(run) >= ell {
		chunks = append(chunks, run)
	}
	return chunks
}
