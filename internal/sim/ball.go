package sim

// Ball collection: the standard LOCAL primitive "learn your radius-R
// neighborhood in R rounds". BallCollector is a reusable sub-machine: every
// round it exchanges its currently known ball with its neighbors; after r
// rounds the node knows the subgraph induced by all nodes within distance r,
// including their IDs, inputs, and adjacency. Algorithm 𝒜 of Section 7 and
// the level computation of Definition 8 are both of this form.

// BallNode is one node of a collected ball.
type BallNode struct {
	ID    uint64
	Input any
	// Neighbors lists the IDs of the node's neighbors known so far. A node
	// at the boundary of the collected ball may not have all its neighbors
	// listed yet.
	Neighbors []uint64
	// Dist is the hop distance from the collector.
	Dist int
}

// BallCollector accumulates the collector's ball, one hop per round.
type BallCollector struct {
	self  BallNode
	known map[uint64]*BallNode
}

// NewBallCollector creates a collector for a node with the given identity.
func NewBallCollector(info NodeInfo) *BallCollector {
	self := BallNode{ID: info.ID, Input: info.Input, Dist: 0}
	bc := &BallCollector{
		self:  self,
		known: map[uint64]*BallNode{info.ID: &self},
	}
	return bc
}

// ballMsg is the knowledge snapshot exchanged each round.
type ballMsg struct {
	nodes []BallNode
}

// Snapshot returns the message to send to every neighbor this round.
func (bc *BallCollector) Snapshot() ballMsg {
	nodes := make([]BallNode, 0, len(bc.known))
	for _, bn := range bc.known {
		nodes = append(nodes, *bn)
	}
	return ballMsg{nodes: nodes}
}

// Absorb folds a received snapshot into the collector's knowledge. fromPort
// identifies the sending neighbor so the direct edge is recorded even before
// the neighbor's own entry arrives.
func (bc *BallCollector) Absorb(msg ballMsg) {
	for _, bn := range msg.nodes {
		cur, ok := bc.known[bn.ID]
		if !ok {
			cp := bn
			cp.Dist = bn.Dist + 1
			cp.Neighbors = append([]uint64(nil), bn.Neighbors...)
			bc.known[bn.ID] = &cp
			continue
		}
		// Keep the closer distance and merge neighbor knowledge.
		if bn.Dist+1 < cur.Dist {
			cur.Dist = bn.Dist + 1
		}
		cur.Neighbors = mergeIDs(cur.Neighbors, bn.Neighbors)
	}
}

// NoteNeighbor records a direct neighbor's ID (learned from any first
// message on a port).
func (bc *BallCollector) NoteNeighbor(id uint64, input any) {
	bc.self.Neighbors = mergeIDs(bc.self.Neighbors, []uint64{id})
	bc.known[bc.self.ID] = &bc.self
	if _, ok := bc.known[id]; !ok {
		bc.known[id] = &BallNode{ID: id, Input: input, Dist: 1}
	}
}

// Known returns the collected nodes within the given distance.
func (bc *BallCollector) Known(maxDist int) []BallNode {
	var out []BallNode
	for _, bn := range bc.known {
		if bn.Dist <= maxDist {
			out = append(out, *bn)
		}
	}
	return out
}

// Size returns the number of distinct nodes known.
func (bc *BallCollector) Size() int { return len(bc.known) }

func mergeIDs(dst, src []uint64) []uint64 {
	seen := make(map[uint64]bool, len(dst)+len(src))
	for _, id := range dst {
		seen[id] = true
	}
	for _, id := range src {
		if !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}

// BallAlgorithm is a sim.Algorithm that collects balls of radius R and then
// terminates, outputting the number of nodes within the ball — a reusable
// building block and a direct test of the "R rounds = radius-R knowledge"
// property of the LOCAL model.
type BallAlgorithm struct {
	Radius int
}

var _ Algorithm = BallAlgorithm{}

// Name implements Algorithm.
func (a BallAlgorithm) Name() string { return "ball-collect" }

// NewMachine implements Algorithm.
func (a BallAlgorithm) NewMachine(info NodeInfo) Machine {
	return &ballMachine{info: info, radius: a.Radius, bc: NewBallCollector(info)}
}

type ballMachine struct {
	info   NodeInfo
	radius int
	bc     *BallCollector
	// send is reused across rounds (the Machine.Step buffer rules).
	send []any
}

func (m *ballMachine) Step(round int, recv []any) ([]any, bool) {
	for _, msg := range recv {
		if bm, ok := msg.(ballMsg); ok {
			m.bc.Absorb(bm)
		}
	}
	if round >= m.radius {
		return nil, true
	}
	if m.send == nil {
		m.send = make([]any, m.info.Degree)
	}
	snap := m.bc.Snapshot()
	for i := range m.send {
		m.send[i] = snap
	}
	return m.send, false
}

func (m *ballMachine) Output() any { return len(m.bc.Known(m.radius)) }
