package sim

import "testing"

// TestShardedBuffersHoldOnlyReceiveSlots: a sharded run writes every send
// into the receiver's slot, as the unsharded backends do, so both message
// buffers hold exactly the receive slots, one per directed edge (len(rev) =
// 2M), on every shard count and layout.
func TestShardedBuffersHoldOnlyReceiveSlots(t *testing.T) {
	for name, tr := range shardShapes(t) {
		for _, k := range []int{2, 3, 7} {
			for _, layout := range []ShardLayout{LayoutRange, LayoutSubtree} {
				r, err := NewEngine(WithShards(k), WithShardLayout(layout)).newRun(tr, tickAlg{rounds: 3})
				if err != nil {
					t.Fatalf("%s shards=%d layout=%s: %v", name, k, layout, err)
				}
				if want := 2 * (tr.N() - 1); len(r.rev) != want {
					t.Fatalf("%s: %d receive slots, want %d", name, len(r.rev), want)
				}
				if len(r.inbox) != len(r.rev) || len(r.next) != len(r.rev) {
					t.Errorf("%s shards=%d layout=%s: buffers hold %d and %d slots, want the %d receive slots",
						name, k, layout, len(r.inbox), len(r.next), len(r.rev))
				}
			}
		}
	}
}
