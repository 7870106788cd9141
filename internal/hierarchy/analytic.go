package hierarchy

import (
	"fmt"
	"math"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Execution is the outcome of running the generic algorithm: per-node output
// labels and termination rounds. RunAnalytic produces it, and it agrees
// exactly with the outputs and rounds of the simulated Generic machine
// (asserted by tests), which lets parameter sweeps use the analytic path on
// instances far beyond what message-level simulation can reach.
type Execution struct {
	Out []Label
	sim.Rounds
}

// RunAnalytic executes the generic algorithm's decision logic centrally,
// charging every node exactly the termination round the LOCAL simulation
// would charge it (see Schedule for the round structure).
func RunAnalytic(t *graph.Tree, levels []int, sched *Schedule, ids []uint64) (*Execution, error) {
	n := t.N()
	if len(levels) != n || len(ids) != n {
		return nil, fmt.Errorf("hierarchy: levels/ids length mismatch (n=%d)", n)
	}
	k := sched.params.Problem.K
	ex := &Execution{
		Out:    make([]Label, n),
		Rounds: make([]int, n),
	}
	decided := make([]bool, n)

	decide := func(v int, lab Label, round int) {
		ex.Out[v] = lab
		ex.Rounds[v] = round
		decided[v] = true
	}

	// Round 0: level-(k+1) nodes output E immediately.
	for v := 0; v < n; v++ {
		if levels[v] == k+1 {
			decide(v, LabelE, 0)
		}
	}

	// relaxExempt assigns E to every eligible node at its earliest legal
	// round; chains have length <= k, so iterating to fixpoint is cheap.
	relaxExempt := func() {
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				l := levels[v]
				if decided[v] || l < 2 || l > k {
					continue
				}
				round, ok := exemptRound(t, levels, ex, decided, v, k)
				if ok {
					decide(v, LabelE, round)
					changed = true
				}
			}
		}
	}
	relaxExempt()

	// Phases 1..k-1.
	for i := 1; i < k; i++ {
		decision := sched.DecisionRound(i)
		gamma := sched.params.Gammas[i-1]
		for _, seg := range activeSegments(t, levels, decided, i) {
			if len(seg) >= gamma {
				for _, v := range seg {
					decide(v, LabelD, decision)
				}
				continue
			}
			colorSegment(seg, ids, func(_, v int, lab Label) { decide(v, lab, decision) })
		}
		relaxExempt()
	}

	// Phase k.
	startK := sched.Start(k)
	for _, seg := range activeSegments(t, levels, decided, k) {
		if sched.params.Problem.Variant == Coloring25 {
			last := len(seg) - 1
			colorSegment(seg, ids, func(pos, v int, lab Label) {
				// T_v = startK + max(distance to either end).
				far := pos
				if last-pos > far {
					far = last - pos
				}
				decide(v, lab, startK+far)
			})
			continue
		}
		colors, rounds, err := runLinialSegment(seg, ids)
		if err != nil {
			return nil, err
		}
		for j, v := range seg {
			decide(v, triColor(colors[j]), startK+rounds)
		}
	}
	relaxExempt()

	for v := 0; v < n; v++ {
		if !decided[v] {
			return nil, fmt.Errorf("hierarchy: analytic run left node %d (level %d) undecided",
				v, levels[v])
		}
	}
	return ex, nil
}

// RunAnalyticOn runs RunAnalytic on every active component of s, with the
// component's levels and its nodes' IDs. It passes every active node's
// output and termination round to emit, by the node's index in s.Tree. It
// fails on a Split whose levels are not at the schedule's depth k.
func RunAnalyticOn(s *Split, sched *Schedule, ids []uint64, emit func(v int, out Label, round int)) error {
	if err := s.depthError(sched.params.Problem.K); err != nil {
		return err
	}
	for c, comp := range s.Active {
		compIDs := make([]uint64, len(comp.Nodes))
		for i, v := range comp.Nodes {
			compIDs[i] = ids[v]
		}
		ex, err := RunAnalytic(comp.Tree, s.Levels[c], sched, compIDs)
		if err != nil {
			return err
		}
		for i, v := range comp.Nodes {
			emit(v, ex.Out[i], ex.Rounds[i])
		}
	}
	return nil
}

// Gammas returns the phase lengths γ_i = max(1, ⌈scale^{α_i}⌉) for the
// exponents alphas: scale is n for the polynomial regime and the log* n
// stand-in for the log* regime.
func Gammas(scale int, alphas []float64) []int {
	gammas := make([]int, len(alphas))
	for i, a := range alphas {
		gammas[i] = max(1, int(math.Ceil(math.Pow(float64(scale), a))))
	}
	return gammas
}

// FirstActive returns the neighbor u of v with active[u] whose round
// rounds[u] is smallest, the first in port order among ties, or -1 if v has
// no active neighbor. It is the active node a weight node waits for and
// copies.
func FirstActive(t *graph.Tree, v int, active []bool, rounds []int) int {
	best := -1
	for _, w := range t.NeighborsRaw(v) {
		if u := int(w); active[u] && (best == -1 || rounds[u] < rounds[best]) {
			best = u
		}
	}
	return best
}

// exemptRound computes whether undecided node v (level 2..k) is eligible for
// E given the current decisions, and at which round the simulation would
// take it.
func exemptRound(t *graph.Tree, levels []int, ex *Execution, decided []bool, v, k int) (int, bool) {
	l := levels[v]
	enabler := -1
	maxLower := 0
	for _, w := range t.NeighborsRaw(v) {
		u := int(w)
		if levels[u] >= l {
			continue
		}
		if l == k {
			if !decided[u] {
				return 0, false
			}
			if ex.Out[u] == LabelD {
				return 0, false
			}
			if ex.Rounds[u] > maxLower {
				maxLower = ex.Rounds[u]
			}
		}
		if decided[u] && (ex.Out[u].IsBiColor() || ex.Out[u] == LabelE) {
			if enabler == -1 || ex.Rounds[u] < enabler {
				enabler = ex.Rounds[u]
			}
		}
	}
	if enabler == -1 {
		return 0, false
	}
	if l == k {
		// The level-k check needs all lower neighbors' outputs visible.
		if maxLower > enabler {
			return maxLower + 1, true
		}
	}
	return enabler + 1, true
}

// activeSegments returns the maximal paths of undecided level-l nodes, each
// ordered along the path.
func activeSegments(t *graph.Tree, levels []int, decided []bool, l int) [][]int {
	return graph.InducedPaths(t, func(v int) bool { return levels[v] == l && !decided[v] })
}

// colorSegment 2-colors an ordered segment by parity of the distance to the
// smaller-ID endpoint, matching genericMachine.decidePath. assign receives
// the position of the node within the segment and the node index.
func colorSegment(seg []int, ids []uint64, assign func(pos, v int, lab Label)) {
	refFromStart := true
	if len(seg) > 1 && ids[seg[len(seg)-1]] < ids[seg[0]] {
		refFromStart = false
	}
	for j, v := range seg {
		d := j
		if !refFromStart {
			d = len(seg) - 1 - j
		}
		if d%2 == 0 {
			assign(j, v, LabelW)
		} else {
			assign(j, v, LabelB)
		}
	}
}

// runLinialSegment runs the Linial reducers of a segment in lockstep
// centrally, mirroring the simulated message exchange, and returns the final
// palette-{0,1,2} colors and the common number of Advance rounds.
func runLinialSegment(seg []int, ids []uint64) ([]int64, int, error) {
	m := len(seg)
	reducers := make([]*coloring.Reducer, m)
	for j, v := range seg {
		r, err := coloring.NewReducer(ids[v], 2, coloring.IDSpace63)
		if err != nil {
			return nil, 0, err
		}
		reducers[j] = r
	}
	rounds := 0
	snapshot := make([]int64, m)
	var buf [2]int64
	for !reducers[0].Done() {
		for j := range reducers {
			snapshot[j] = reducers[j].Color()
		}
		for j := range reducers {
			nbr := buf[:0]
			if j > 0 {
				nbr = append(nbr, snapshot[j-1])
			}
			if j < m-1 {
				nbr = append(nbr, snapshot[j+1])
			}
			if err := reducers[j].Advance(nbr); err != nil {
				return nil, 0, err
			}
		}
		rounds++
	}
	colors := make([]int64, m)
	for j := range reducers {
		colors[j] = reducers[j].Color()
	}
	return colors, rounds, nil
}
