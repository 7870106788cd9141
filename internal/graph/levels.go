package graph

// ComputeLevels implements the level computation of Definition 8: repeatedly
// (for i = 1..k) remove, simultaneously, all nodes of degree at most 2 in the
// remaining tree; nodes removed in iteration i have level i, and all nodes
// that survive k iterations have level k+1.
//
// The returned slice maps node index to level in 1..k+1.
func ComputeLevels(t *Tree, k int) []int {
	n := t.N()
	level := make([]int, n)
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = t.Degree(v)
		alive[v] = true
	}
	remaining := n
	for i := 1; i <= k && remaining > 0; i++ {
		var batch []int
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] <= 2 {
				batch = append(batch, v)
			}
		}
		for _, v := range batch {
			level[v] = i
			alive[v] = false
		}
		remaining -= len(batch)
		for _, v := range batch {
			for _, w := range t.NeighborsRaw(v) {
				if alive[w] {
					deg[w]--
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if alive[v] {
			level[v] = k + 1
		}
	}
	return level
}
