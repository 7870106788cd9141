package coloring

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// oracleReducer is the straightforward Reducer the differential tests hold
// the real one to: a fresh PaletteSchedule per node, freshly allocated
// polynomial coefficients every reduction round, and a map of used colors in
// greedy rounds.
type oracleReducer struct {
	delta    int
	schedule []paletteStep
	phase    int
	greedyC  int
	color    int64
	done     bool
}

func newOracleReducer(id uint64, delta int, idSpace float64) (*oracleReducer, error) {
	steps, fix, err := PaletteSchedule(delta, idSpace)
	if err != nil {
		return nil, err
	}
	r := &oracleReducer{
		delta:    delta,
		schedule: steps,
		greedyC:  int(fix) - 1,
		color:    int64(id),
	}
	if len(steps) == 0 && fix <= int64(delta)+1 {
		r.done = true
	}
	return r, nil
}

func (r *oracleReducer) Rounds() int {
	greedy := r.greedyC - r.delta
	if greedy < 0 {
		greedy = 0
	}
	return len(r.schedule) + greedy
}

func (r *oracleReducer) Advance(neighborColors []int64) error {
	if r.done {
		return nil
	}
	if r.phase < len(r.schedule) {
		step := r.schedule[r.phase]
		nc, err := oracleReduceOnce(r.color, neighborColors, step, r.delta)
		if err != nil {
			return err
		}
		r.color = nc
		r.phase++
		if r.phase == len(r.schedule) && r.greedyC <= r.delta {
			r.done = true
		}
		return nil
	}
	if r.color == int64(r.greedyC) {
		used := make(map[int64]bool, r.delta)
		for _, c := range neighborColors {
			if c >= 0 {
				used[c] = true
			}
		}
		for c := int64(0); ; c++ {
			if !used[c] {
				r.color = c
				break
			}
		}
	}
	r.greedyC--
	if r.greedyC <= r.delta {
		r.done = true
	}
	return nil
}

func oracleReduceOnce(color int64, neighbors []int64, step paletteStep, delta int) (int64, error) {
	q := step.q
	coeffs := polyCoeffs(color, step.d, q)
	var nbrCoeffs [][]int64
	for _, c := range neighbors {
		if c < 0 {
			continue
		}
		if c == color {
			return 0, fmt.Errorf("coloring: neighbor has identical color %d (improper input coloring)", c)
		}
		nbrCoeffs = append(nbrCoeffs, polyCoeffs(c, step.d, q))
	}
	if len(nbrCoeffs) > delta {
		return 0, fmt.Errorf("coloring: %d active neighbors exceeds delta %d", len(nbrCoeffs), delta)
	}
	for x := int64(0); x < q; x++ {
		y := polyEval(coeffs, x, q)
		covered := false
		for _, nb := range nbrCoeffs {
			if polyEval(nb, x, q) == y {
				covered = true
				break
			}
		}
		if !covered {
			return x*q + y, nil
		}
	}
	return 0, fmt.Errorf("coloring: no uncovered point for color %d (q=%d, d=%d)", color, q, step.d)
}

// polyCoeffs writes color in base q as d+1 coefficients.
func polyCoeffs(color int64, d int, q int64) []int64 {
	coeffs := make([]int64, d+1)
	for i := 0; i <= d; i++ {
		coeffs[i] = color % q
		color /= q
	}
	return coeffs
}

// polyEval evaluates the polynomial at x over F_q (Horner).
func polyEval(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

// pair is a Reducer and the oracle seeded alike.
type pair struct {
	got  *Reducer
	want *oracleReducer
}

func newPair(t *testing.T, id uint64, delta int) pair {
	t.Helper()
	got, err := NewReducer(id, delta, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newOracleReducer(id, delta, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds() != want.Rounds() || got.Done() != want.done {
		t.Fatalf("id %d Δ=%d: Rounds/Done %d/%v, oracle %d/%v", id, delta, got.Rounds(), got.Done(), want.Rounds(), want.done)
	}
	return pair{got, want}
}

// advance feeds nbr to both sides. diff describes any difference in the
// error, the color or Done; err is the Reducer's error.
func (p pair) advance(nbr []int64) (diff string, err error) {
	err, errWant := p.got.Advance(nbr), p.want.Advance(nbr)
	if fmt.Sprint(err) != fmt.Sprint(errWant) {
		return fmt.Sprintf("error %v, oracle %v", err, errWant), err
	}
	if p.got.Color() != p.want.color || p.got.Done() != p.want.done {
		return fmt.Sprintf("color/done %d/%v, oracle %d/%v", p.got.Color(), p.got.Done(), p.want.color, p.want.done), err
	}
	return "", err
}

// randomTree returns the adjacency lists of a random tree on n nodes with
// maximum degree at most delta.
func randomTree(rng *rand.Rand, n, delta int) [][]int {
	adj := make([][]int, n)
	for v := 1; v < n; v++ {
		for {
			u := rng.Intn(v)
			if len(adj[u]) < delta {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				break
			}
		}
	}
	return adj
}

// TestReducerMatchesOracleTrajectories runs every node of random trees with
// Δ ∈ {1..8} and random IDs in lockstep, once through the Reducer and once
// through the oracle, and requires the same color at every node after every
// round. Some nodes carry masked (−1) ports beside their real neighbors. A
// star with Δ = 12 leaves takes the heap path above the stack scratch.
func TestReducerMatchesOracleTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, delta := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12} {
		for trial := 0; trial < 6; trial++ {
			n := 2
			if delta > 1 {
				n = 2 + rng.Intn(60)
			}
			adj := randomTree(rng, n, delta)
			if delta > stackDegree {
				n = delta + 1
				adj = make([][]int, n)
				for v := 1; v < n; v++ {
					adj[0] = append(adj[0], v)
					adj[v] = []int{0}
				}
			}
			ids := make([]uint64, n)
			seen := map[uint64]bool{}
			for v := range ids {
				for ids[v] == 0 || seen[ids[v]] {
					ids[v] = uint64(rng.Int63())
					if trial%2 == 1 {
						ids[v] %= 1000 // small IDs: early rounds box no color
					}
				}
				seen[ids[v]] = true
			}
			masked := make([]int, n)
			for v := range masked {
				if rng.Intn(3) == 0 {
					masked[v] = 1 + rng.Intn(2)
				}
			}
			nodes := make([]pair, n)
			for v := range nodes {
				nodes[v] = newPair(t, ids[v], delta)
			}
			snapshot := make([]int64, n)
			for round := 1; !nodes[0].got.Done(); round++ {
				for v := range nodes {
					snapshot[v] = nodes[v].got.Color()
				}
				for v := range nodes {
					nbr := make([]int64, 0, len(adj[v])+masked[v])
					for _, u := range adj[v] {
						nbr = append(nbr, snapshot[u])
					}
					for i := 0; i < masked[v]; i++ {
						at := rng.Intn(len(nbr) + 1)
						nbr = append(nbr[:at], append([]int64{-1}, nbr[at:]...)...)
					}
					if diff, err := nodes[v].advance(nbr); diff != "" {
						t.Fatalf("Δ=%d trial %d round %d node %d: %s", delta, trial, round, v, diff)
					} else if err != nil {
						t.Fatalf("Δ=%d trial %d round %d node %d: %v", delta, trial, round, v, err)
					}
				}
			}
			for v, p := range nodes {
				if !p.want.done || p.got.Color() > int64(delta) {
					t.Fatalf("Δ=%d trial %d: node %d ends at color %d, done %v", delta, trial, v, p.got.Color(), p.want.done)
				}
				for _, u := range adj[v] {
					if p.got.Color() == nodes[u].got.Color() {
						t.Fatalf("Δ=%d trial %d: edge {%d,%d} monochromatic", delta, trial, v, u)
					}
				}
			}
		}
	}
}

// TestReducerMatchesOracleOnArbitraryRounds feeds both sides arbitrary
// neighbor vectors, including masked entries, the node's own color and more
// active entries than Δ, through every phase of the schedule, so both error
// paths are compared as well as the colors.
func TestReducerMatchesOracleOnArbitraryRounds(t *testing.T) {
	f := func(id uint64, deltaSeed uint8, seed int64) bool {
		delta := 1 + int(deltaSeed)%8
		id >>= 1
		p := newPair(t, id, delta)
		rng := rand.New(rand.NewSource(seed))
		for !p.got.Done() {
			nbr := make([]int64, rng.Intn(delta+3))
			for i := range nbr {
				switch rng.Intn(6) {
				case 0:
					nbr[i] = -1
				case 1:
					nbr[i] = p.got.Color()
				case 2:
					nbr[i] = int64(rng.Intn(delta + 2))
				default:
					nbr[i] = rng.Int63n(1 << uint(1+rng.Intn(62)))
				}
			}
			if diff, _ := p.advance(nbr); diff != "" {
				t.Errorf("id %d Δ=%d nbr %v: %s", id, delta, nbr, diff)
				return false
			}
			if rng.Intn(4) == 0 {
				// Also step past rounds with no neighbors at all.
				if diff, _ := p.advance(nil); diff != "" {
					t.Errorf("id %d Δ=%d no neighbors: %s", id, delta, diff)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReducerErrorsMatchOracle pins the two invariant errors of a reduction
// round: a neighbor with the node's own color, which wins over a count above
// Δ wherever it appears, and more than Δ active neighbors, where masked
// entries do not count.
func TestReducerErrorsMatchOracle(t *testing.T) {
	const id, delta = 1 << 40, 3
	for _, tc := range []struct {
		name string
		nbr  []int64
		want string
	}{
		{"identical", []int64{5, id}, "coloring: neighbor has identical color 1099511627776 (improper input coloring)"},
		{"identical-after-too-many", []int64{1, 2, 3, 4, 5, id}, "coloring: neighbor has identical color 1099511627776 (improper input coloring)"},
		{"too-many", []int64{1, 2, 3, 4}, "coloring: 4 active neighbors exceeds delta 3"},
		{"too-many-beside-masked", []int64{-1, 1, -1, 2, 3, 4, -1}, "coloring: 4 active neighbors exceeds delta 3"},
		{"masked-within-delta", []int64{-1, 1, -1, 2, 3, -1}, ""},
	} {
		p := newPair(t, id, delta)
		diff, err := p.advance(tc.nbr)
		if diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSharedScheduleMatchesPaletteSchedule checks that the schedule every
// Reducer shares is PaletteSchedule's, is computed once per (Δ, ID space)
// even when reducers are built concurrently, and that a bad Δ still fails.
func TestSharedScheduleMatchesPaletteSchedule(t *testing.T) {
	for delta := 1; delta <= 16; delta++ {
		steps, fix, err := PaletteSchedule(delta, IDSpace63)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]*Reducer, 4)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = NewReducer(uint64(i+1), delta, IDSpace63)
			}()
		}
		wg.Wait()
		for i, r := range got {
			if r == nil {
				t.Fatalf("Δ=%d: reducer %d not built", delta, i)
			}
			if fmt.Sprint(r.schedule) != fmt.Sprint(steps) || r.greedyC != int(fix)-1 {
				t.Fatalf("Δ=%d: shared schedule %v (fix %d), PaletteSchedule %v (fix %d)", delta, r.schedule, r.greedyC+1, steps, fix)
			}
			if &r.schedule[0] != &got[0].schedule[0] {
				t.Fatalf("Δ=%d: reducers %d and 0 hold separate schedules", delta, i)
			}
		}
	}
	if _, err := NewReducer(1, 0, IDSpace63); err == nil {
		t.Fatal("want an error for delta 0")
	}
}

// TestStackScratchCoversSmallDegrees checks the claim behind the scratch
// bounds: for every Δ ≤ stackDegree, every reduction round of a node with Δ
// active neighbors fits its coefficients in stackCoeffs.
func TestStackScratchCoversSmallDegrees(t *testing.T) {
	for delta := 1; delta <= stackDegree; delta++ {
		steps, _, err := PaletteSchedule(delta, IDSpace63)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			if need := (delta + 1) * (s.d + 1); need > stackCoeffs {
				t.Errorf("Δ=%d step %d needs %d coefficients, stack scratch holds %d", delta, i, need, stackCoeffs)
			}
		}
	}
}
