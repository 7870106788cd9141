package graph

// ComputeLevels implements the level computation of Definition 8: repeatedly
// (for i = 1..k) remove, simultaneously, all nodes of degree at most 2 in the
// remaining tree; nodes removed in iteration i have level i, and all nodes
// that survive k iterations have level k+1.
//
// The returned slice maps node index to level in 1..k+1.
func ComputeLevels(t *Tree, k int) []int {
	n := t.N()
	level := make([]int, n) // 0 while the node is still in the tree
	deg := make([]int32, n)
	// batch holds every iteration's removals back to back. A node can only
	// become removable when a neighbor is removed, so iteration i+1's batch
	// is the neighbors whose degree fell to 2 while iteration i's batch was
	// removed; each node enters once, when its degree reaches 2.
	batch := make([]int32, 0, n)
	for v := range deg {
		deg[v] = t.off[v+1] - t.off[v]
		if deg[v] <= 2 {
			batch = append(batch, int32(v))
		}
	}
	for i, start := 1, 0; i <= k && start < len(batch); i++ {
		end := len(batch)
		for _, v := range batch[start:end] {
			level[v] = i
		}
		for _, v := range batch[start:end] {
			for _, w := range t.NeighborsRaw(int(v)) {
				if level[w] == 0 {
					if deg[w]--; deg[w] == 2 {
						batch = append(batch, w)
					}
				}
			}
		}
		start = end
	}
	for v := range level {
		if level[v] == 0 {
			level[v] = k + 1
		}
	}
	return level
}
