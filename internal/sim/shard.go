package sim

// The sharded backend: WithShards(k) runs one simulation as k parts, each a
// contiguous node range with its own machines, frontier, and message slots,
// stepped by the same step kernel as the unsharded backends. A message from
// a node to a neighbor in the same part is written directly into the
// neighbor's receive slot; a message to a node of another part is written
// into a staging slot of the sending part and delivered by the bus at the
// round barrier.
//
// The bus ships only what the senders that stepped this round wrote. What
// a sleeping or terminated boundary node shows its remote neighbors — its
// standing sends, its frozen output — the barrier writes into the receiver's
// slot in both buffers on the sender's behalf, once, when the node falls
// asleep or terminates; it then stays there at zero bus cost until the node
// steps again, which is the same convention the unsharded backends follow.
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
// behind the reverse edge, or the barrier acting for it), so delivery order
// never affects what a machine observes, and Rounds, Outputs, TotalRounds,
// Messages, and Steps are bit-identical to the sequential backend at every
// shard count. The bus is the single seam through which a part learns
// anything about other parts' nodes, which is what makes it the attachment
// point for a future multi-process executor: replace the in-memory exchange
// with a network transport and nothing else changes.

import (
	"slices"

	"repro/internal/graph"
)

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

// stage prepares a multi-part run's bus. Every edge slot e whose neighbor
// lies in another part gets a staging slot past the 2M receive slots, and
// dst[e] points there instead of at the receiver's slot rev[e]: the step
// kernel writes a cross-part send into its own part's staging slot without
// a branch, and the bus ships it at the barrier. stage counts each part's
// boundary edges and returns the number of staging slots.
func (r *run) stage() int {
	r.dst = slices.Clone(r.rev)
	staged := 0
	for i := range r.parts {
		p := &r.parts[i]
		for e := r.off[p.lo]; e < r.off[p.hi]; e++ {
			if w := r.nbrs[e]; w < p.lo || w >= p.hi {
				r.dst[e] = int32(len(r.rev) + staged)
				staged++
				p.stats.BoundaryEdges++
			}
		}
	}
	return staged
}

// exchange is the in-memory bus, run by the coordinator at the round
// barrier, before the nodes that left the frontier are retired (a listening
// node checks its inbox then). For every cross-part edge of a node that
// stepped this round it moves the message the node wrote, nil included,
// from the staging slot into the receiver's slot, and counts a real one.
// Edges of sleeping and terminated senders already hold what they show in
// both buffers. The walk costs at most what the kernel spent writing those
// nodes' ports. Delivery order is immaterial: each receive slot has a
// single writer.
func (r *run) exchange() {
	for i := range r.units {
		u := &r.units[i]
		for _, v := range u.p.active[u.lo:u.hi] {
			for e := r.off[v]; e < r.off[v+1]; e++ {
				if s := r.dst[e]; s != r.rev[e] {
					x := r.next[s]
					r.next[r.rev[e]] = x
					if x != nil {
						u.p.stats.MessagesCrossed++
					}
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
