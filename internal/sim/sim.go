// Package sim implements a synchronous LOCAL-model simulator.
//
// The LOCAL model (Linial): nodes of a graph host identical deterministic
// state machines; computation proceeds in synchronous rounds; in every round
// each node sends an (unbounded-size) message to each neighbor, receives the
// messages of its neighbors, and updates its state. Each node knows its own
// unique identifier, its degree, and the total number of nodes n. A node
// terminates when it irrevocably fixes its output; the running time of node v
// is the number T_v of rounds until v terminates.
//
// The node-averaged complexity of an execution is (1/n) * sum_v T_v (Section
// 2 of the paper).
//
// Terminated nodes keep participating passively: their frozen output remains
// visible to their neighbors (this is the standard convention, and the
// weighted LCLs of the paper rely on neighbors observing outputs of
// terminated nodes).
//
// # Engine and backends
//
// Executions run through an Engine configured by functional options
// (NewEngine, WithIDs, WithInputs, WithMaxRounds, WithContext,
// WithParallelism, WithShards). Three backends share one pull kernel, one
// step kernel, and one round loop:
//
//   - sequential: one part over all nodes, stepped inline in index order;
//   - parallel (WithParallelism): the same part, with each round's
//     frontier cut into contiguous chunks stepped on persistent goroutines
//     behind the synchronous-round barrier;
//   - sharded (WithShards): the tree is partitioned into contiguous
//     node-range parts, each with its own machines, frontier, and message
//     slots, stepped one goroutine per part and exchanging only cross-part
//     boundary messages through an in-memory bus between rounds (the seam a
//     multi-process executor plugs into).
//
// All three produce bit-identical Rounds, Outputs, TotalRounds, and
// Messages for the same IDs and inputs; sharded runs additionally report
// per-shard statistics in Result.Shards. Determinism rests on a single
// invariant: within a round, the receive slot of a directed edge has
// exactly one writer.
//
// All backends keep execution state in struct-of-arrays form: termination
// flags, frozen outputs, and message buffers are flat arrays indexed by
// node or by directed-edge slot through the tree's CSR offsets
// (graph.Tree.Offsets), so stepping a round is a linear sweep over
// contiguous memory rather than a pointer chase through per-node objects.
//
// All backends schedule rounds over the active frontier: a compact list of
// the not-yet-terminated nodes, compacted in place as nodes terminate, so a
// round costs Θ(frontier size) rather than Θ(n). Frozen outputs reach active
// nodes by pull (each active node fills its empty inbox slots from
// terminated neighbors before stepping) instead of push, so terminated nodes
// cost nothing at all — per-round work is proportional to exactly the
// node-averaged quantity the paper measures. Result.Steps records the total
// machine-step work.
package sim

import (
	"errors"

	"repro/internal/graph"
)

// Common simulator errors.
var (
	ErrRoundLimit = errors.New("round limit exceeded before all nodes terminated")
	ErrNilOutput  = errors.New("machine terminated with nil output")
	// ErrBadPort reports a machine that returned a non-nil message on a port
	// >= its degree. The seed engine truncated such sends silently, which made
	// buggy algorithms appear to run clean while dropping traffic.
	ErrBadPort = errors.New("machine sent on a port beyond its degree")
)

// NodeInfo is the static information available to a node at the start of the
// computation: exactly what a LOCAL node legitimately knows.
type NodeInfo struct {
	// ID is the node's globally unique identifier.
	ID uint64
	// Degree is the number of incident edges (ports 0..Degree-1).
	Degree int
	// N is the total number of nodes in the network.
	N int
	// Input is the node's LCL input label (problem specific; may be nil).
	Input any
}

// Machine is the per-node state machine of a distributed algorithm.
type Machine interface {
	// Step executes one synchronous round. recv[i] holds the message received
	// on port i this round (nil if the neighbor sent nothing). It returns the
	// messages to send on each port next round (send may be nil or shorter
	// than Degree; missing entries mean "no message") and whether the node
	// terminates *now*. Once done is returned, Step is never called again.
	//
	// Buffer rules. Every backend copies each entry out of send before the
	// machine's next Step, so a machine may return the same send slice every
	// round and overwrite its entries once Step has returned (whatever a sent
	// value points to must not change: receivers hold it). recv belongs to
	// the engine: it is cleared after the step and reused, so a machine must
	// not retain it (or any subslice) past the call.
	Step(round int, recv []any) (send []any, done bool)
	// Output returns the node's final output; called only after termination.
	Output() any
}

// Algorithm constructs the state machine for one node.
type Algorithm interface {
	// Name identifies the algorithm in traces and errors.
	Name() string
	// NewMachine creates the state machine for a node with the given static
	// info.
	NewMachine(info NodeInfo) Machine
}

// Terminated is the message the runtime delivers on behalf of a terminated
// neighbor in every subsequent round: the neighbor's frozen output.
type Terminated struct {
	Output any
}

// Rounds is a round trace: Rounds[v] is T_v, the round in which node v
// terminated (a node that terminates before sending or receiving anything
// has T_v = 0). The simulator and the central solvers all report one, so
// every execution is measured the same way.
type Rounds []int

// NodeAveraged returns (1/n) * sum_v T_v, the node-averaged complexity of
// the execution (0 for an empty trace).
func (r Rounds) NodeAveraged() float64 {
	if len(r) == 0 {
		return 0
	}
	return float64(r.SumRounds()) / float64(len(r))
}

// SumRounds returns sum_v T_v.
func (r Rounds) SumRounds() int64 {
	var sum int64
	for _, t := range r {
		sum += int64(t)
	}
	return sum
}

// MaxRounds returns the worst-case round count max_v T_v (0 for an empty
// trace).
func (r Rounds) MaxRounds() int {
	m := 0
	for _, t := range r {
		m = max(m, t)
	}
	return m
}

// Result captures an execution of an algorithm on a graph.
type Result struct {
	// Rounds[v] is T_v, the round in which node v terminated.
	Rounds
	// Outputs[v] is node v's output.
	Outputs []any
	// TotalRounds is the worst-case round count max_v T_v.
	TotalRounds int
	// Messages is the total number of non-nil messages delivered.
	Messages int64
	// Steps is the total number of Machine.Step invocations across the run:
	// node v steps in rounds 0..T_v, so Steps = SumRounds() + n. It is the
	// work the active-frontier scheduler actually performs — Θ(Σ_v T_v)
	// machine steps rather than the Θ(n · TotalRounds) sweep a full-range
	// scheduler would pay — and, like every other Result field, it is
	// bit-identical across the sequential, parallel, and sharded backends.
	Steps int64
	// Shards holds per-shard execution statistics when the run used the
	// sharded backend (WithShards); nil otherwise. Rounds, Outputs,
	// TotalRounds, and Messages are bit-identical across all shard counts —
	// only this field distinguishes a sharded result.
	Shards []ShardStats
}

func clearAny(xs []any) {
	for i := range xs {
		xs[i] = nil
	}
}

// reverseSlots computes, for each directed-edge slot e = off[v]+p (port p of
// node v in the tree's CSR layout), the flat slot of the reverse directed
// edge — off[u]+q where q is the port of u leading back to v. Message state
// indexed by flat slot then needs no per-node indirection: node v sends on
// port p by writing next[rev[off[v]+p]].
func reverseSlots(t *graph.Tree) []int32 {
	off, nbrs := t.Offsets(), t.AdjacencyRaw()
	rev := make([]int32, len(nbrs))
	n := t.N()
	for v := 0; v < n; v++ {
		for e := off[v]; e < off[v+1]; e++ {
			u := nbrs[e]
			// Degrees are bounded, so the inner scan is O(Δ).
			for f := off[u]; f < off[u+1]; f++ {
				if int(nbrs[f]) == v {
					rev[e] = f
					break
				}
			}
		}
	}
	return rev
}

// DefaultIDs produces n distinct pseudo-random 63-bit identifiers from a
// seed, deterministic across runs (splitmix64 stream with collision
// avoidance; collisions at these sizes are practically impossible but are
// handled anyway).
func DefaultIDs(n int, seed uint64) []uint64 {
	ids := make([]uint64, n)
	used := newIDSet(n)
	s := seed
	for i := 0; i < n; i++ {
		for {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			z >>= 1 // keep IDs in 63 bits
			if z != 0 && used.insert(z) {
				ids[i] = z
				break
			}
		}
	}
	return ids
}

// idSet is an open-addressed, linearly probed set of IDs. 0 marks an empty
// slot, which is safe because DefaultIDs never issues 0. Its length is a
// power of two at least twice the number of IDs it will hold.
type idSet []uint64

func newIDSet(n int) idSet {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return make(idSet, size)
}

// insert adds z and reports whether it was absent. The IDs are splitmix64
// outputs, so their low bits already index the table uniformly.
func (s idSet) insert(z uint64) bool {
	mask := uint64(len(s) - 1)
	for i := z & mask; ; i = (i + 1) & mask {
		switch s[i] {
		case 0:
			s[i] = z
			return true
		case z:
			return false
		}
	}
}

// SequentialIDs returns IDs 1..n (useful for adversarial/parity tests).
func SequentialIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}
