package hierarchy

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/graph"
)

// Execution is the outcome of running the generic algorithm: per-node output
// labels and termination rounds. It is produced both by the simulator (via
// sim.Run + CollectExecution) and by RunAnalytic; the two agree exactly
// (asserted by tests), which lets parameter sweeps use the analytic path on
// instances far beyond what message-level simulation can reach.
type Execution struct {
	Out    []Label
	Rounds []int
}

// NodeAveraged returns (1/n) * sum_v T_v.
func (e *Execution) NodeAveraged() float64 {
	if len(e.Rounds) == 0 {
		return 0
	}
	var sum int64
	for _, t := range e.Rounds {
		sum += int64(t)
	}
	return float64(sum) / float64(len(e.Rounds))
}

// SumRounds returns sum_v T_v.
func (e *Execution) SumRounds() int64 {
	var sum int64
	for _, t := range e.Rounds {
		sum += int64(t)
	}
	return sum
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
		start := sched.Start(i)
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
		_ = start
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
	n := t.N()
	seen := make([]bool, n)
	var segs [][]int
	activeDeg := func(v int) (d int, nbs [2]int) {
		for _, w := range t.NeighborsRaw(v) {
			u := int(w)
			if levels[u] == l && !decided[u] {
				if d < 2 {
					nbs[d] = u
				}
				d++
			}
		}
		return d, nbs
	}
	for v := 0; v < n; v++ {
		if levels[v] != l || decided[v] || seen[v] {
			continue
		}
		d, _ := activeDeg(v)
		if d == 2 {
			continue // interior; will be picked up from an endpoint
		}
		// Walk from the endpoint (or isolated node).
		seg := []int{v}
		seen[v] = true
		prev, cur := -1, v
		for {
			dd, nbs := activeDeg(cur)
			next := -1
			for j := 0; j < dd && j < 2; j++ {
				if nbs[j] != prev {
					next = nbs[j]
					break
				}
			}
			if next == -1 {
				break
			}
			seg = append(seg, next)
			seen[next] = true
			prev, cur = cur, next
		}
		segs = append(segs, seg)
	}
	return segs
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

// CollectExecution converts a simulator result whose outputs are Labels into
// an Execution.
func CollectExecution(outputs []any, rounds []int) (*Execution, error) {
	ex := &Execution{
		Out:    make([]Label, len(outputs)),
		Rounds: append([]int(nil), rounds...),
	}
	for v, o := range outputs {
		lab, ok := o.(Label)
		if !ok {
			return nil, fmt.Errorf("hierarchy: node %d output %T, want Label", v, o)
		}
		ex.Out[v] = lab
	}
	return ex, nil
}
