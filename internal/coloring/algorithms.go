package coloring

import (
	"repro/internal/graph"
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

var (
	_ sim.Algorithm   = LinialAlgorithm{}
	_ sim.SlabBuilder = LinialAlgorithm{}
	_ sim.Sleeper     = (*linialMachine)(nil)
)

// Name implements sim.Algorithm.
func (a LinialAlgorithm) Name() string { return "linial-coloring" }

// NewMachine implements sim.Algorithm.
func (a LinialAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	m := new(linialMachine)
	m.init(info, a.schedule(), make([]any, info.Degree))
	return m
}

// NewMachines implements sim.SlabBuilder: the run's machines share one
// array of machines, one of send slots and one schedule lookup.
func (a LinialAlgorithm) NewMachines(info func(v int) sim.NodeInfo, out []sim.Machine) {
	s := a.schedule()
	ports := 0
	for v := range out {
		ports += info(v).Degree
	}
	ms, sends := make([]linialMachine, len(out)), make([]any, ports)
	for v := range ms {
		i := info(v)
		ms[v].init(i, s, sends[:i.Degree:i.Degree])
		sends = sends[i.Degree:]
		out[v] = &ms[v]
	}
}

// schedule returns the palette schedule every machine of a run shares.
func (a LinialAlgorithm) schedule() *sharedSchedule {
	s, err := scheduleFor(a.Delta, IDSpace63)
	if err != nil {
		// It can only fail on delta < 1, a static misuse.
		panic(err)
	}
	return s
}

type linialMachine struct {
	reducer Reducer
	// send is reused every round (the sim.Machine.Step buffer rules). Every
	// entry holds one boxed colorMsg carrying sent, the color of the last
	// fill; sent starts at -1, which no color of a 63-bit ID ever is.
	send []any
	sent int64
}

// init seeds m for the node described by info, with send as its send
// buffer (one slot per port).
func (m *linialMachine) init(info sim.NodeInfo, s *sharedSchedule, send []any) {
	m.reducer.seed(info.ID, s)
	m.send, m.sent = send, -1
}

// colorMsg carries a node's current color.
type colorMsg struct{ color int64 }

func (m *linialMachine) Step(round int, recv []any) ([]any, bool) {
	if round > 0 {
		m.reducer.skipTo(round)
		var nbr []int64
		// A greedy round of another color class only counts the class down,
		// so recv is decoded only for a round that reads it.
		if m.reducer.readsNeighbors() {
			var buf [stackDegree]int64
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
	// One boxed message serves every port, and it is immutable, so send is
	// refilled only when the color has changed since the last fill.
	if c := m.reducer.Color(); c != m.sent {
		msg := any(colorMsg{color: c})
		for i := range m.send {
			m.send[i] = msg
		}
		m.sent = c
	}
	return m.send, false
}

func (m *linialMachine) Output() any { return m.reducer.Color() }

// Idle implements sim.Sleeper: a greedy round of another color class only
// counts the class down, which Step catches up from the round number, so
// the node is idle until the round that eliminates its own class, or, once
// its color is final, until the last round.
func (m *linialMachine) Idle(int) int { return m.reducer.idleRounds() }

// TwoColorPathAlgorithm 2-colors a path graph in Θ(n) worst-case rounds:
// each endpoint floods its identifier and a hop counter; a node terminates
// once it has heard from both endpoints, coloring itself by the parity of
// its distance to the endpoint with the smaller identifier. All nodes agree
// on the orientation, so the coloring is proper; every node needs
// max(d_left, d_right) rounds, so both worst-case and node-averaged cost are
// Θ(n) — the paper's Corollary 60 regime.
type TwoColorPathAlgorithm struct{}

var (
	_ sim.Algorithm   = TwoColorPathAlgorithm{}
	_ sim.SlabBuilder = TwoColorPathAlgorithm{}
	_ sim.Sleeper     = (*twoColorMachine)(nil)
)

// Name implements sim.Algorithm.
func (TwoColorPathAlgorithm) Name() string { return "two-color-path" }

// NewMachine implements sim.Algorithm.
func (TwoColorPathAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	return &twoColorMachine{info: info}
}

// NewMachines implements sim.SlabBuilder with one array of machines; a
// machine's initial state is its info and zeros, as in NewMachine.
func (TwoColorPathAlgorithm) NewMachines(info func(v int) sim.NodeInfo, out []sim.Machine) {
	ms := make([]twoColorMachine, len(out))
	for v := range ms {
		ms[v].info = info(v)
		out[v] = &ms[v]
	}
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
	learned := false
	for p, msg := range recv[:min(len(recv), len(m.ends))] {
		if em, ok := msg.(endpointMsg); ok && !m.known[p] {
			m.ends[p] = em
			m.known[p] = true
			learned = true
		}
	}
	// Every send and the termination happen in an endpoint's round-0
	// announcement or in a step that learns an endpoint (a terminated
	// neighbor's frozen output is not one), so any other step is idle.
	if round > 0 && !learned {
		return nil, false
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

// Idle implements sim.Sleeper: a step that learns no endpoint sends nothing
// and changes nothing, and only an endpoint message teaches one.
func (m *twoColorMachine) Idle(int) int { return sim.UntilMessage }

// VerifyProperColoring reports whether no edge of t has equal colors at its
// endpoints; colors[v] is the color of node v. Otherwise it returns the
// first monochromatic edge {badU, badV}, badU < badV, in node order and then
// port order. It walks the CSR and allocates nothing.
func VerifyProperColoring(t *graph.Tree, colors []int64) (ok bool, badU, badV int) {
	for u := range t.N() {
		for _, w := range t.NeighborsRaw(u) {
			if u < int(w) && colors[u] == colors[w] {
				return false, u, int(w)
			}
		}
	}
	return true, -1, -1
}
