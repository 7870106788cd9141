package sim

// The sharded backend: WithShards(k) runs one simulation as k parts, each a
// contiguous node range with its own machines, frontier, and message slots,
// stepped by the same pull and step kernels as the unsharded backends. A
// message from a node to a neighbor in the same part is written directly
// into the neighbor's receive slot; a message to a node of another part is
// written into a staging slot of the sending part and delivered by the bus
// at the round barrier.
//
// Frozen outputs of terminated nodes reach still-active local nodes by pull.
// Frozen outputs of terminated boundary nodes cross the bus exactly once, as
// a fill that the receiving part caches in remoteFrozen by local slot;
// every later round the pull phase serves it from the cache at zero bus
// cost — the same zero-cost convention the unsharded backends implement.
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
// behind the reverse edge, or the bus acting for it), and the pull phase
// only fills slots that round's writers left empty, so delivery order never
// affects what a machine observes, and Rounds, Outputs, TotalRounds,
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
	// nodes to nodes of other shards. Frozen-output fills cross the bus once
	// per (terminated boundary node, cross edge) and are not counted, in
	// keeping with the zero-message-cost redelivery convention.
	MessagesCrossed int64 `json:"messages_crossed"`
	// ActiveRounds counts rounds in which the shard still hosted at least
	// one undecided node.
	ActiveRounds int `json:"active_rounds"`
	// Steps counts the Machine.Step invocations the shard performed: the
	// shard's share of Result.Steps, and — frontier scheduling — the work it
	// actually did.
	Steps int64 `json:"steps"`
}

// stage prepares a multi-part run's bus. Every edge slot e whose neighbor
// lies in another part gets a staging slot past the 2M receive slots, and
// dst[e] points there instead of at the receiver's slot rev[e]: the step
// kernel writes a cross-part send into its own part's staging slot without
// a branch, and the bus ships it at the barrier. stage lists each part's
// cross-part slots, which also count its boundary edges, and returns the
// number of staging slots.
func (r *run) stage() int {
	r.dst = slices.Clone(r.rev)
	var cross []int32
	for i := range r.parts {
		p := &r.parts[i]
		for e := r.off[p.lo]; e < r.off[p.hi]; e++ {
			if w := r.nbrs[e]; w < p.lo || w >= p.hi {
				r.dst[e] = int32(len(r.rev) + len(cross))
				cross = append(cross, e)
				p.stats.BoundaryEdges++
			}
		}
	}
	staged := len(cross)
	for i := range r.parts {
		p := &r.parts[i]
		p.cross, cross = cross[:p.stats.BoundaryEdges], cross[p.stats.BoundaryEdges:]
	}
	return staged
}

// exchange is the in-memory bus, run by the coordinator at the round
// barrier. For every cross-part edge it moves this round's message, if
// any, from the sender's staging slot into the receiver's slot, and once
// the sender has terminated it delivers the sender's frozen output, once,
// as a fill into the receiving part's remoteFrozen cache, from which that
// part's pull phase serves it. A real message — including one sent in the
// terminating round — takes precedence, because pull only fills empty
// slots. Delivery order is immaterial: each receive slot has a single
// writer, and fills only populate the cache.
func (r *run) exchange() {
	for i := range r.parts {
		src := &r.parts[i]
		for _, e := range src.cross {
			to := r.rev[e]
			if s := r.dst[e]; r.next[s] != nil {
				r.next[to], r.next[s] = r.next[s], nil
				src.stats.MessagesCrossed++
			}
			if u := r.nbrs[to]; r.done[u] {
				rcv := &r.parts[r.owner[r.nbrs[e]]]
				base := r.off[rcv.lo]
				if rcv.remoteFrozen == nil {
					rcv.remoteFrozen = make([]any, r.off[rcv.hi]-base)
				}
				if rcv.remoteFrozen[to-base] == nil {
					rcv.remoteFrozen[to-base] = r.frozen[u]
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
