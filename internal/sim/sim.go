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
// WithParallelism, WithShards). Three backends share one step kernel and
// one round loop:
//
//   - sequential: one part over all nodes, stepped inline in index order;
//   - parallel (WithParallelism): the same part, with each round's
//     frontier cut into contiguous chunks, one per goroutine;
//   - sharded (WithShards): the tree is partitioned into contiguous
//     node-range parts, each with its own machines, frontier, and receive
//     slots, stepped one goroutine per part; a send to another part's node
//     is written straight into that node's receive slot, as on the other
//     backends, and the round barrier counts the messages that crossed
//     parts for Result.Shards.
//
// The calling goroutine steps the first chunk or part itself; the others
// run on goroutines that live from the first round that needs them to the
// end of the run. The synchronous-round barrier between them is an atomic
// handoff: an atomic phase counter releases a phase and an atomic pending
// count reports it done, and a side that waits polls for a few tens of µs,
// when the run has no more units than GOMAXPROCS, before it parks on a wake
// channel. A round whose whole frontier has fewer than inlineFrontier (256)
// nodes costs less to step than to hand off, so the calling goroutine steps
// all of its chunks or parts itself, and a run whose rounds are all that
// small starts no goroutine.
//
// Set-up is paid once per run: an Algorithm that is also a SlabBuilder
// builds every machine in one call, and in the round whose terminations
// retire every node still undecided the barrier writes no frozen output,
// since no step will read one.
//
// All three produce bit-identical Rounds, Outputs, TotalRounds, Messages,
// and Steps for the same IDs and inputs; sharded runs additionally report
// per-shard statistics in Result.Shards. Determinism rests on a single
// invariant: every message slot, the receive slot of a directed edge, has
// exactly one writer, its sender (or the round barrier acting for it).
//
// All backends keep execution state in struct-of-arrays form: node states
// and message buffers are flat arrays indexed by node or by directed-edge
// slot through the tree's CSR offsets (graph.Tree.Offsets), so stepping a
// round is a linear sweep over contiguous memory rather than a pointer
// chase through per-node objects.
//
// All backends schedule rounds over the active frontier: a compact list of
// the nodes that step this round, kept in ascending order. A node leaves it
// when it terminates, and also while it sleeps: a Machine that is also a
// Sleeper reports the steps ahead of it that would do nothing, and the
// engine skips them while still counting them. Slots are owned by their
// senders: a step writes every one of its ports, and the round barrier
// writes a sleeper's standing sends and a terminated node's frozen output
// into both message buffers, so a node that wakes finds exactly what its
// neighbors sent the round before, and terminated nodes cost nothing at
// all. Per-round work therefore follows the steps that do something, not
// the nodes that are undecided. Result.Steps still reports the paper's
// measure of work, Σ_v (T_v+1): a node is charged for every round it waits.
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
	// the engine and is read-only: its slots belong to the senders and may
	// be read again in a later round, so a machine must not write into it
	// or retain it (or any subslice) past the call. A machine may return
	// recv itself as send.
	Step(round int, recv []any) (send []any, done bool)
	// Output returns the node's final output; called only after termination.
	Output() any
}

// Sleeper is implemented by a Machine that can tell when its next steps are
// idle. The engine calls Idle after every Step that did not terminate and
// skips the idle steps, while counting them in Steps and their sends in
// Messages, so a sleeping node costs nothing per round. Idle returns one of:
//
//   - k > 0: the steps of rounds round+1 … round+k would each return this
//     step's send values, ignore recv and not terminate. The engine may
//     still run some of them; a k that reaches past its round limit is cut
//     short.
//   - UntilMessage, honoured only after a step that sent nothing: the
//     machine's steps are idle (they send nothing and do not terminate)
//     until one receives a real message, a non-nil value other than
//     Terminated. A timed sleeper's standing sends count as real messages
//     in every round they stand.
//   - anything else: no step ahead is known to be idle.
//
// Step must give the same results whether or not its idle steps ran: it
// knows the round number, so it can catch up whatever a skipped step would
// have counted. An engine that steps every node in every round therefore
// reproduces a sleeping engine's results exactly.
type Sleeper interface {
	Idle(round int) int
}

// UntilMessage is the Idle result of a machine whose steps are idle until
// one receives a real message.
const UntilMessage = -1

// Algorithm constructs the state machine for one node. An Algorithm that is
// also a SlabBuilder has the engine build every machine of a run at once.
type Algorithm interface {
	// Name identifies the algorithm in traces and errors.
	Name() string
	// NewMachine creates the state machine for a node with the given static
	// info.
	NewMachine(info NodeInfo) Machine
}

// SlabBuilder is implemented by an Algorithm that can build all of a run's
// machines in one call, typically as one array of machine values and one
// of send buffers instead of a few heap objects per node. Engine.Run calls
// NewMachines instead of NewMachine when the Algorithm has it: info(v) is
// node v's static info, and out[v], which it must set for every v, must
// behave exactly as NewMachine(info(v)) would. A wrapper that embeds the
// Algorithm interface hides NewMachines, so its own NewMachine still runs.
type SlabBuilder interface {
	NewMachines(info func(v int) NodeInfo, out []Machine)
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
	// Steps is the work the paper charges, Σ_v (T_v+1) = SumRounds() + n:
	// node v steps in rounds 0..T_v, counted whether the engine ran the
	// step or skipped it as idle (see Sleeper). A frontier scheduler pays
	// Θ(Σ_v T_v) steps rather than the Θ(n · TotalRounds) sweep of a
	// full-range scheduler, and skipping idle steps pays less still; like
	// every other Result field, Steps is bit-identical across the
	// sequential, parallel, and sharded backends.
	Steps int64
	// Shards holds per-shard execution statistics when the run used the
	// sharded backend (WithShards); nil otherwise. Rounds, Outputs,
	// TotalRounds, and Messages are bit-identical across all shard counts —
	// only this field distinguishes a sharded result.
	Shards []ShardStats
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
// seed, deterministic across runs: draw t of the splitmix64 stream is
// mix(seed + t·γ) for t = 1, 2, ..., its top 63 bits are the ID, and a draw
// that would repeat an earlier ID or issue 0 is skipped (see skipDraw).
// Skips are practically impossible at these sizes, but handled anyway.
func DefaultIDs(n int, seed uint64) []uint64 {
	ids := make([]uint64, n)
	s := seed
	for i, t := 0, uint64(1); i < n; t++ {
		s += gamma
		if z := mix(s); !skipDraw(z, seed, t) {
			ids[i] = z >> 1
			i++
		}
	}
	return ids
}

// splitmix64's stream increment γ and the two multipliers of its
// finalizer, each with its inverse mod 2^64 (all three are odd).
const (
	gamma      = 0x9e3779b97f4a7c15
	gammaInv   = 0xf1de83e19937733d
	mixMul1    = 0xbf58476d1ce4e5b9
	mixMul1Inv = 0x96de1b173f119089
	mixMul2    = 0x94d049bb133111eb
	mixMul2Inv = 0x319642b2d24d8ec3
)

// mix is splitmix64's finalizer, a bijection on uint64.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * mixMul1
	z = (z ^ z>>27) * mixMul2
	return z ^ z>>31
}

// mixInverse inverts mix step by step: z ^ z>>s with 3s >= 64 is undone by
// z ^ z>>s ^ z>>2s, and each multiplication by its inverse.
func mixInverse(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= mixMul2Inv
	z ^= z>>27 ^ z>>54
	z *= mixMul1Inv
	return z ^ z>>30 ^ z>>60
}

// partnerIndex returns the stream index t′ of the draw whose 64-bit value
// is z^1, the only other value with z's top 63 bits: mix is a bijection, so
// that draw has s = mixInverse(z^1), and s = seed + t′·γ gives
// t′ = (s − seed)·γ⁻¹ mod 2^64.
func partnerIndex(z, seed uint64) uint64 {
	return (mixInverse(z^1) - seed) * gammaInv
}

// skipDraw reports whether draw t (t >= 1) of the stream from seed, with
// 64-bit value z, issues no ID: its 63-bit value is 0, or its partner is an
// earlier draw, t′ in [1, t), which issued the same ID. That partner was
// itself issued, since its value is not 0 and its own partner, draw t, came
// later, so this is exactly the check a set of the issued IDs would make.
func skipDraw(z, seed, t uint64) bool {
	return z>>1 == 0 || partnerIndex(z, seed)-1 < t-1
}

// SequentialIDs returns IDs 1..n (useful for adversarial/parity tests).
func SequentialIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}
