package coloring

import (
	"repro/internal/sim"
)

// IDSpace63 is the default identifier-space size used by the palette
// schedule (63-bit identifiers).
const IDSpace63 = float64(1 << 63)

// LinialAlgorithm is a sim.Algorithm computing a proper (Δ+1)-coloring of
// the whole graph in O(log* n) + O(Δ²) rounds. Delta must be an upper bound
// on the maximum degree.
type LinialAlgorithm struct {
	Delta int
}

var _ sim.Algorithm = LinialAlgorithm{}

// Name implements sim.Algorithm.
func (a LinialAlgorithm) Name() string { return "linial-coloring" }

// NewMachine implements sim.Algorithm.
func (a LinialAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	m := &linialMachine{send: make([]any, info.Degree)}
	if err := m.reducer.init(info.ID, a.Delta, IDSpace63); err != nil {
		// Construction can only fail on delta < 1, a static misuse.
		panic(err)
	}
	return m
}

type linialMachine struct {
	reducer Reducer
	// send is reused every round (the sim.Machine.Step buffer rules).
	send []any
}

// colorMsg carries a node's current color.
type colorMsg struct{ color int64 }

func (m *linialMachine) Step(round int, recv []any) ([]any, bool) {
	if round > 0 {
		var buf [stackDegree]int64
		var nbr []int64
		if len(recv) <= len(buf) {
			nbr = buf[:len(recv)]
		} else {
			nbr = make([]int64, len(recv))
		}
		for i, msg := range recv {
			nbr[i] = -1
			if cm, ok := msg.(colorMsg); ok {
				nbr[i] = cm.color
			}
		}
		if err := m.reducer.Advance(nbr); err != nil {
			// Invariant violation inside a deterministic lockstep schedule is
			// a programming error, not a runtime condition.
			panic(err)
		}
		if m.reducer.Done() {
			return nil, true
		}
	}
	// One boxed message serves every port.
	msg := any(colorMsg{color: m.reducer.Color()})
	for i := range m.send {
		m.send[i] = msg
	}
	return m.send, false
}

func (m *linialMachine) Output() any { return m.reducer.Color() }

// TwoColorPathAlgorithm 2-colors a path graph in Θ(n) worst-case rounds:
// each endpoint floods its identifier and a hop counter; a node terminates
// once it has heard from both endpoints, coloring itself by the parity of
// its distance to the endpoint with the smaller identifier. All nodes agree
// on the orientation, so the coloring is proper; every node needs
// max(d_left, d_right) rounds, so both worst-case and node-averaged cost are
// Θ(n) — the paper's Corollary 60 regime.
type TwoColorPathAlgorithm struct{}

var _ sim.Algorithm = TwoColorPathAlgorithm{}

// Name implements sim.Algorithm.
func (TwoColorPathAlgorithm) Name() string { return "two-color-path" }

// NewMachine implements sim.Algorithm.
func (TwoColorPathAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	return &twoColorMachine{info: info}
}

// endpointMsg carries an endpoint's ID and the hop distance travelled so
// far.
type endpointMsg struct {
	id   uint64
	dist int
}

type twoColorMachine struct {
	info sim.NodeInfo
	// ends[p] is the endpoint info learned from the direction of port p. A
	// path node has at most two ports; no port beyond them is ever read.
	ends  [2]endpointMsg
	known [2]bool
	sent  [2]bool
	// send is reused by the steps that send (the sim.Machine.Step buffer
	// rules); a step that sends nothing returns nil.
	send [2]any
	out  int64
}

func (m *twoColorMachine) Step(round int, recv []any) ([]any, bool) {
	for p, msg := range recv[:min(len(recv), len(m.ends))] {
		if em, ok := msg.(endpointMsg); ok && !m.known[p] {
			m.ends[p] = em
			m.known[p] = true
		}
	}
	switch m.info.Degree {
	case 0:
		m.out = 0
		return nil, true
	case 1:
		// Endpoint: announce self once, then wait for the other endpoint.
		var send []any
		if !m.sent[0] {
			m.send[0] = endpointMsg{id: m.info.ID, dist: 1}
			send = m.send[:1]
			m.sent[0] = true
		}
		if m.known[0] {
			m.out = m.colorFrom(endpointMsg{id: m.info.ID, dist: 0}, m.ends[0])
			return send, true
		}
		return send, false
	default: // degree 2 interior node
		var send []any
		for p := 0; p < 2; p++ {
			other := 1 - p
			m.send[p] = nil
			if m.known[other] && !m.sent[p] {
				m.send[p] = endpointMsg{id: m.ends[other].id, dist: m.ends[other].dist + 1}
				m.sent[p] = true
				send = m.send[:]
			}
		}
		if m.known[0] && m.known[1] {
			m.out = m.colorFrom(m.ends[0], m.ends[1])
			return send, true
		}
		return send, false
	}
}

// colorFrom colors by parity of the distance to the smaller-ID endpoint.
func (m *twoColorMachine) colorFrom(a, b endpointMsg) int64 {
	ref := a
	if b.id < a.id {
		ref = b
	}
	return int64(ref.dist % 2)
}

func (m *twoColorMachine) Output() any { return m.out }

// VerifyProperColoring checks that no edge of the graph has equal colors at
// its endpoints. colors[v] is the color of node v.
type edgeLister interface {
	Edges() [][2]int
}

// VerifyProperColoring reports the first monochromatic edge, or ok.
func VerifyProperColoring(g edgeLister, colors []int64) (ok bool, badU, badV int) {
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false, e[0], e[1]
		}
	}
	return true, -1, -1
}
