package coloring

import (
	"fmt"
	"math"
	"sync"
)

// Reducer is the Linial iterated color-reduction engine for one node, usable
// standalone or as a sub-machine inside composite algorithms.
//
// It starts from the node's unique identifier (a proper "2^63-coloring") and,
// in each communication round, exchanges current colors with its active
// neighbors. Palette sizes shrink according to a deterministic schedule that
// depends only on (Δ, ID-space size), so all nodes operate in lockstep with
// no extra coordination:
//
//  1. Reduction rounds: with palette size m, colors are identified with
//     polynomials of degree ≤ d over F_q (q prime, q > d·Δ, q^{d+1} ≥ m).
//     The set S_c = {(x, p_c(x)) : x ∈ F_q} of a color intersects any other
//     color's set in ≤ d points, so the ≤ Δ neighbor sets cover ≤ dΔ < q
//     points of S_c and the node can pick an uncovered point as its new
//     color in [q²]. Adjacent nodes pick distinct points (the node's point
//     avoids the neighbor's whole set; the neighbor's point lies in it).
//  2. Greedy rounds: once the palette stops shrinking (size m*, a constant
//     depending only on Δ), color classes m*-1, m*-2, ..., Δ+1 recolor one
//     per round to the smallest free color in {0..Δ}.
//
// Total rounds: O(log* n) + O(Δ²). The final palette is {0..Δ}: 3 colors on
// paths.
type Reducer struct {
	delta    int
	schedule []paletteStep
	phase    int // index into schedule (reduction), then greedy countdown
	greedyC  int // current color class being eliminated; < 0 when finished
	color    int64
	done     bool
}

type paletteStep struct {
	m int64 // palette size before this step
	d int   // polynomial degree
	q int64 // field size
}

// PaletteSchedule computes the deterministic palette-size schedule for a
// given maximum degree and ID-space size (2^63 by default). The last entry's
// q² is the fixpoint palette size m*.
func PaletteSchedule(delta int, idSpace float64) ([]paletteStep, int64, error) {
	if delta < 1 {
		return nil, 0, fmt.Errorf("coloring: delta %d < 1", delta)
	}
	var steps []paletteStep
	cur := paletteSize(idSpace)
	for i := 0; i < 64; i++ {
		d, q, ok := choosePoly(cur, delta)
		if !ok {
			break
		}
		next := q * q
		if next >= cur {
			break // fixpoint reached
		}
		steps = append(steps, paletteStep{m: cur, d: d, q: q})
		cur = next
	}
	return steps, cur, nil
}

// paletteSize is the integer palette size of an ID space of idSpace
// identifiers, capped so that palette arithmetic cannot overflow.
func paletteSize(idSpace float64) int64 {
	if idSpace > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(idSpace)
}

// choosePoly picks the smallest degree d (and corresponding prime q > dΔ)
// such that q^{d+1} >= m. It returns ok=false if no progress is possible.
func choosePoly(m int64, delta int) (d int, q int64, ok bool) {
	for d = 1; d <= 64; d++ {
		qi := int64(NextPrime(d * delta))
		// Check qi^{d+1} >= m without overflow.
		pow := int64(1)
		reached := false
		for e := 0; e < d+1; e++ {
			if pow > m/qi+1 {
				reached = true
				break
			}
			pow *= qi
			if pow >= m {
				reached = true
				break
			}
		}
		if reached {
			return d, qi, true
		}
	}
	return 0, 0, false
}

// Scratch bounds of one Reducer round. Neighbor colors, polynomial
// coefficients and greedy marks live in fixed-size stack arrays of these
// sizes, and only a round that needs more takes them from the heap. Every
// catalog tree has maximum degree at most 4; stackCoeffs covers
// (Δ+1)·(d+1) for every schedule step of every Δ ≤ stackDegree (99 at
// Δ = 8). The arrays are zeroed on every call, so they are kept small.
const (
	stackDegree = 8
	stackCoeffs = 100
)

// scheduleKey identifies a palette schedule: PaletteSchedule depends on the
// ID-space size only through its integer palette size.
type scheduleKey struct {
	delta int
	m     int64
}

type sharedSchedule struct {
	steps []paletteStep
	fix   int64
}

// schedules memoizes PaletteSchedule for NewReducer, keyed by scheduleKey.
// The schedule is a pure function of its key and a stored one is never
// mutated, so every Reducer with the same (Δ, ID space) shares one copy
// instead of re-running the prime search per node.
var schedules sync.Map

// scheduleFor returns the shared schedule for (delta, idSpace).
func scheduleFor(delta int, idSpace float64) (*sharedSchedule, error) {
	key := scheduleKey{delta: delta, m: paletteSize(idSpace)}
	if s, ok := schedules.Load(key); ok {
		return s.(*sharedSchedule), nil
	}
	steps, fix, err := PaletteSchedule(delta, idSpace)
	if err != nil {
		return nil, err
	}
	s, _ := schedules.LoadOrStore(key, &sharedSchedule{steps: steps, fix: fix})
	return s.(*sharedSchedule), nil
}

// NewReducer creates a reduction engine seeded with the node's identifier.
// idSpace is the size of the ID space (use float64(1<<63) for 63-bit IDs).
func NewReducer(id uint64, delta int, idSpace float64) (*Reducer, error) {
	r := new(Reducer)
	if err := r.init(id, delta, idSpace); err != nil {
		return nil, err
	}
	return r, nil
}

// init seeds r as NewReducer does, so a machine can hold its Reducer by
// value.
func (r *Reducer) init(id uint64, delta int, idSpace float64) error {
	s, err := scheduleFor(delta, idSpace)
	if err != nil {
		return err
	}
	*r = Reducer{
		delta:    delta,
		schedule: s.steps,
		greedyC:  int(s.fix) - 1,
		color:    int64(id),
	}
	if len(s.steps) == 0 && s.fix <= int64(delta)+1 {
		r.done = true
	}
	return nil
}

// Color returns the node's current color. After Done() reports true this is
// the final color in {0..Δ}.
func (r *Reducer) Color() int64 { return r.color }

// Done reports whether the reduction has finished.
func (r *Reducer) Done() bool { return r.done }

// Rounds returns the total number of communication rounds the schedule
// takes; identical on every node.
func (r *Reducer) Rounds() int {
	greedy := r.greedyC - r.delta // classes m*-1 .. Δ+1, one round each
	if greedy < 0 {
		greedy = 0
	}
	return len(r.schedule) + greedy
}

// Advance performs one lockstep round given the current colors of the active
// neighbors (entries < 0 are ignored: masked ports / non-participants). It
// returns an error only on violated invariants (duplicate neighbor color),
// which would indicate an improper input coloring.
func (r *Reducer) Advance(neighborColors []int64) error {
	if r.done {
		return nil
	}
	if r.phase < len(r.schedule) {
		step := r.schedule[r.phase]
		nc, err := reduceOnce(r.color, neighborColors, step, r.delta)
		if err != nil {
			return err
		}
		r.color = nc
		r.phase++
		if r.phase == len(r.schedule) && r.greedyC <= r.delta {
			r.done = true
		}
		return nil
	}
	// Greedy elimination of color class r.greedyC.
	if r.color == int64(r.greedyC) {
		r.color = smallestFree(neighborColors)
	}
	r.greedyC--
	if r.greedyC <= r.delta {
		r.done = true
	}
	return nil
}

// smallestFree returns the smallest color >= 0 that no entry of colors
// holds. It is at most len(colors), so marks for 0..len(colors) suffice.
func smallestFree(colors []int64) int64 {
	var buf [stackDegree + 1]bool
	var used []bool
	if len(colors) < len(buf) {
		used = buf[:len(colors)+1]
	} else {
		used = make([]bool, len(colors)+1)
	}
	for _, c := range colors {
		if c >= 0 && c < int64(len(used)) {
			used[c] = true
		}
	}
	c := 0
	for used[c] {
		c++
	}
	return int64(c)
}

// reduceOnce applies one polynomial reduction step.
func reduceOnce(color int64, neighbors []int64, step paletteStep, delta int) (int64, error) {
	active := 0
	for _, c := range neighbors {
		if c < 0 {
			continue
		}
		if c == color {
			return 0, fmt.Errorf("coloring: neighbor has identical color %d (improper input coloring)", c)
		}
		active++
	}
	if active > delta {
		return 0, fmt.Errorf("coloring: %d active neighbors exceeds delta %d", active, delta)
	}
	// Color c is the polynomial whose coefficients are the w base-q digits
	// of c. coeffs holds ours first, then those of each active neighbor.
	q, w := step.q, step.d+1
	var buf [stackCoeffs]int64
	var coeffs []int64
	if need := (active + 1) * w; need <= len(buf) {
		coeffs = buf[:need]
	} else {
		coeffs = make([]int64, need)
	}
	digits(coeffs[:w], color, q)
	j := w
	for _, c := range neighbors {
		if c >= 0 {
			digits(coeffs[j:j+w], c, q)
			j += w
		}
	}
	// Our candidate point (x, p_color(x)) is covered by neighbor c' iff
	// p_{c'}(x) equals p_color(x); take the first uncovered one.
	for x := int64(0); x < q; x++ {
		y := horner(coeffs[:w], x, q)
		covered := false
		for j := w; j < len(coeffs); j += w {
			if horner(coeffs[j:j+w], x, q) == y {
				covered = true
				break
			}
		}
		if !covered {
			return x*q + y, nil
		}
	}
	// Cannot happen: ≤ dΔ < q covered points.
	return 0, fmt.Errorf("coloring: no uncovered point for color %d (q=%d, d=%d)", color, q, step.d)
}

// digits writes color in base q into coeffs, least significant first.
func digits(coeffs []int64, color, q int64) {
	for i := range coeffs {
		coeffs[i] = color % q
		color /= q
	}
}

// horner evaluates the polynomial with the given coefficients at x over
// F_q.
func horner(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}
