package sim

// The sharded backend: WithShards(k) runs one simulation as k parts, each a
// contiguous node range with its own machines, frontier, and receive slots,
// stepped by the same step kernel as the unsharded backends. A send is
// written straight into the receiver's slot, next[rev[e]], whether the
// receiver lies in the sender's part or in another one: a part's kernel
// reads only its own nodes' receive slots, and every slot has one writer, so
// parts share the two message buffers exactly as the parallel backend's
// units do, and the kernel needs no cross-part branch.
//
// What crosses parts is counted, not moved. At the round barrier, before
// any node is retired, countCrossed counts the real messages that the nodes
// that stepped wrote on their cross-part ports; leave counts a napping
// node's crossed standing sends once per round they stand. What a sleeping
// or terminated boundary node shows its remote neighbors — its standing
// sends, its frozen output — the barrier writes into both buffers on the
// sender's behalf, once, as for any other neighbor. The per-shard
// statistics therefore size the traffic a transport between processes
// would carry; such a transport would stage messages at its own boundary.
//
// Which nodes a part owns is the engine's shard layout (WithShardLayout):
// the range layout shards the construction numbering directly, while the
// subtree layout relabels the tree by graph.Partition's fat preorder first,
// so part ranges align with subtrees and far fewer edges cross parts. A
// layout only permutes indices — the kernels always see contiguous ranges —
// and results are mapped back to construction numbering, so the layout is
// invisible in everything but Result.Shards.
//
// Determinism: every receive slot has exactly one writer (the neighbor
// behind the reverse edge, or the barrier acting for it), so the order in
// which parts step never affects what a machine observes, and Rounds,
// Outputs, TotalRounds, Messages, and Steps are bit-identical to the
// sequential backend at every shard count.

import "repro/internal/graph"

// ShardStats describes what one shard observed over a sharded run.
type ShardStats struct {
	// Shard is the shard index; shard i owns the i-th contiguous node range.
	Shard int `json:"shard"`
	// Nodes is the number of nodes the shard owns.
	Nodes int `json:"nodes"`
	// BoundaryEdges counts edges with exactly one endpoint in this shard.
	BoundaryEdges int `json:"boundary_edges"`
	// MessagesCrossed counts real (non-nil) messages sent by this shard's
	// nodes to nodes of other shards, a sleeping node's standing sends once
	// per round they stand. Frozen outputs of terminated nodes are written
	// across once and are not counted, in keeping with the zero-message-cost
	// redelivery convention.
	MessagesCrossed int64 `json:"messages_crossed"`
	// ActiveRounds counts rounds in which the shard still hosted at least
	// one undecided node, asleep or not.
	ActiveRounds int `json:"active_rounds"`
	// Steps is the shard's share of Result.Steps: Σ (T_v+1) over the
	// shard's nodes, counting the idle steps the engine skipped.
	Steps int64 `json:"steps"`
}

// countBoundary counts each part's boundary edges: the edge slots of its
// nodes whose neighbor lies in another part.
func (r *run) countBoundary() {
	for i := range r.parts {
		p := &r.parts[i]
		for _, w := range r.nbrs[r.off[p.lo]:r.off[p.hi]] {
			if w < p.lo || w >= p.hi {
				p.stats.BoundaryEdges++
			}
		}
	}
}

// countCrossed runs on the coordinator at the round barrier, before the
// nodes that left the frontier are retired, while next still holds exactly
// what this round's steps wrote. For every node that stepped it counts the
// real messages on its cross-part ports. Edges of sleeping and terminated
// senders are left out: leave counts a napper's standing sends, and a frozen
// output costs nothing. The walk costs at most what the kernel spent writing
// those nodes' ports.
func (r *run) countCrossed() {
	for i := range r.units {
		u := &r.units[i]
		p := u.p
		for _, v := range p.active[u.lo:u.hi] {
			for e := r.off[v]; e < r.off[v+1]; e++ {
				if w := r.nbrs[e]; (w < p.lo || w >= p.hi) && r.next[r.rev[e]] != nil {
					p.stats.MessagesCrossed++
				}
			}
		}
	}
}

// relabel prepares a k-part run under the subtree layout. It relabels t by
// graph.Partition's fat preorder: node v of the construction occupies
// execution index perm[v], with its ID and input carried along, and the
// contiguous-range machinery applies verbatim to the relabeled indices.
// Relabeling preserves every machine's observable world — the same ID,
// degree, input, and per-port neighbor sequence — so the permuted run is the
// same simulation step for step; results are mapped back through r.orig,
// making Rounds, Outputs, TotalRounds, Messages, and Steps bit-identical
// across layouts. Only Result.Shards differs: its BoundaryEdges and
// MessagesCrossed describe the layout actually executed — the objective the
// partitioner minimizes.
func (r *run) relabel(t *graph.Tree, ids []uint64, inputs []any, k int) (*graph.Tree, []uint64, []any, []int32) {
	lay := graph.Partition(t, k)
	if lay.Perm == nil {
		return t, ids, inputs, lay.Cuts
	}
	r.orig = lay.Inverse()
	return graph.PermuteTree(t, lay.Perm), permute(ids, r.orig), permute(inputs, r.orig), lay.Cuts
}

// permute returns xs in execution order (nil stays nil).
func permute[T any](xs []T, orig []int32) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(orig))
	for p, v := range orig {
		out[p] = xs[v]
	}
	return out
}
