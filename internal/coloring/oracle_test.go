package coloring

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
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
	if got.Done() != want.done {
		t.Fatalf("id %d Δ=%d: Done %v, oracle %v", id, delta, got.Done(), want.done)
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

// TestReduceOnceShortcutMatchesOracle drives every reduction step of the
// schedules for Δ = 1..8 through the three cases of reduceOnce's x = 0
// shortcut, against oracleReduceOnce, which always computes the digits and
// evaluates every polynomial. Neighbor lists mix in masked (−1) ports, and
// the covering neighbor sits at a random position among them.
//   - x = 0 free: no neighbor is ≡ c (mod q), and the new color is c mod q.
//   - x = 0 covered: one neighbor is ≡ c (mod q), and the new color is not
//     on x = 0.
//   - Leading x covered: neighbor i agrees with c at x = i only, for i
//     below the neighbor count, and the new color lies on x = that count.
func TestReduceOnceShortcutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for delta := 1; delta <= 8; delta++ {
		steps, _, err := PaletteSchedule(delta, IDSpace63)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for si, step := range steps {
			q := step.q
			// randColor returns a color of the step's palette other than c
			// that is (want) or is not (!want) ≡ c (mod q).
			randColor := func(c int64, want bool) int64 {
				for {
					o := rng.Int63n(step.m)
					if want {
						o = o - o%q + c%q
					}
					if o != c && o < step.m && (o%q == c%q) == want {
						return o
					}
				}
			}
			// through shifts c's polynomial by a(x − x0) for a random a ≠ 0,
			// which keeps its value at x0 and changes it everywhere else,
			// and returns the color of the result; ok is false when no a
			// tried gives a color inside the palette.
			through := func(c, x0 int64) (int64, bool) {
				for range 50 {
					a := 1 + rng.Int63n(q-1)
					coeffs := polyCoeffs(c, step.d, q)
					coeffs[0] = ((coeffs[0]-a*x0)%q + q) % q
					coeffs[1] = (coeffs[1] + a) % q
					var o int64
					for i := step.d; i >= 0 && o <= (step.m-coeffs[i])/q; i-- {
						o = o*q + coeffs[i]
						if i == 0 && o < step.m {
							return o, true
						}
					}
				}
				return 0, false
			}
			mask := func(nbr []int64) []int64 {
				for range rng.Intn(3) {
					at := rng.Intn(len(nbr) + 1)
					nbr = append(nbr[:at], append([]int64{-1}, nbr[at:]...)...)
				}
				return nbr
			}
			check := func(name string, c int64, nbr []int64, x func(x int64) bool) {
				t.Helper()
				got, err := reduceOnce(c, nbr, step, delta)
				want, errWant := oracleReduceOnce(c, nbr, step, delta)
				if err != nil || errWant != nil || got != want {
					t.Fatalf("Δ=%d step %d (q=%d, d=%d) %s: c=%d nbr %v: got %d (%v), oracle %d (%v)",
						delta, si, q, step.d, name, c, nbr, got, err, want, errWant)
				}
				if !x(got / q) {
					t.Fatalf("Δ=%d step %d (q=%d) %s: c=%d nbr %v: new color %d lies on x = %d",
						delta, si, q, name, c, nbr, got, got/q)
				}
			}
			for trial := 0; trial < 40; trial++ {
				c := rng.Int63n(step.m)
				free := make([]int64, rng.Intn(delta+1))
				for i := range free {
					free[i] = randColor(c, false)
				}
				check("x=0 free", c, mask(free), func(x int64) bool { return x == 0 })

				covered := make([]int64, 1+rng.Intn(delta))
				for i := range covered {
					covered[i] = randColor(c, false)
				}
				covered[rng.Intn(len(covered))] = randColor(c, true)
				check("x=0 covered", c, mask(covered), func(x int64) bool { return x > 0 })

				// Each of these neighbors covers exactly one point, so the
				// first free x is their count.
				lead := make([]int64, 0, delta)
				for x0 := int64(0); x0 < int64(delta); x0++ {
					o, ok := through(c, x0)
					if !ok {
						break
					}
					lead = append(lead, o)
				}
				covers := int64(len(lead))
				most = max(most, len(lead))
				rng.Shuffle(len(lead), func(i, j int) { lead[i], lead[j] = lead[j], lead[i] })
				check("leading x covered", c, mask(lead), func(x int64) bool { return x == covers })
			}
		}
		if most != delta {
			t.Fatalf("Δ=%d: at most %d leading points covered, want Δ", delta, most)
		}
	}
}

// oracleVerifyProperColoring is VerifyProperColoring as it was before it
// walked the CSR: a scan of the tree's edge list.
func oracleVerifyProperColoring(tr *graph.Tree, colors []int64) (ok bool, badU, badV int) {
	for _, e := range tr.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false, e[0], e[1]
		}
	}
	return true, -1, -1
}

// TestVerifyProperColoringMatchesOracle plants 0-3 conflicts in a proper
// 2-coloring of random trees, whose edges are added in random order and
// orientation so that port order is not node order, and requires the same
// verdict and the same first monochromatic edge as the edge-list scan.
func TestVerifyProperColoringMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 300 {
		n := 1 + rng.Intn(80)
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			e := [2]int{rng.Intn(v), v}
			if rng.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			edges = append(edges, e)
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		b := graph.NewBuilder(n)
		b.AddNodes(n)
		for _, e := range edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		tr := b.MustBuild()
		colors := make([]int64, n)
		for v, d := range tr.BFS(0) {
			colors[v] = int64(d % 2)
		}
		conflicts := 0
		if len(edges) > 0 {
			conflicts = rng.Intn(4)
		}
		for range conflicts {
			e := edges[rng.Intn(len(edges))]
			colors[e[1]] = colors[e[0]]
		}
		ok, u, w := VerifyProperColoring(tr, colors)
		wantOK, wantU, wantW := oracleVerifyProperColoring(tr, colors)
		if ok != wantOK || u != wantU || w != wantW {
			t.Fatalf("trial %d (n=%d, %d conflicts): got %v {%d,%d}, oracle %v {%d,%d}",
				trial, n, conflicts, ok, u, w, wantOK, wantU, wantW)
		}
		if conflicts == 0 && !ok {
			t.Fatalf("trial %d: proper 2-coloring rejected at {%d,%d}", trial, u, w)
		}
	}
}

func TestVerifyProperColoringAllocatesNothing(t *testing.T) {
	tr, err := graph.BuildPath(4096)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int64, tr.N())
	for v := range colors {
		colors[v] = int64(v % 2)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if ok, u, w := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("proper coloring rejected at {%d,%d}", u, w)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per call, want 0", allocs)
	}
}

// oracleLinialMachine is linialMachine with the Step it had before idle
// greedy rounds returned at once: every round after round 0 decodes every
// neighbor message, and every round boxes the color afresh and refills
// every port. It never sleeps, so the engine runs every one of its steps.
type oracleLinialMachine struct{ linialMachine }

func (m *oracleLinialMachine) Idle(int) int { return 0 }

func (m *oracleLinialMachine) Step(round int, recv []any) ([]any, bool) {
	if round > 0 {
		var buf [stackDegree]int64
		var nbr []int64
		if len(recv) <= len(buf) {
			nbr = buf[:len(recv)]
		} else {
			nbr = make([]int64, len(recv))
		}
		for i, msg := range recv {
			nbr[i] = -1
			if cm, ok := msg.(colorMsg); ok {
				nbr[i] = cm.color
			}
		}
		if err := m.reducer.Advance(nbr); err != nil {
			panic(err)
		}
		if m.reducer.Done() {
			return nil, true
		}
	}
	msg := any(colorMsg{color: m.reducer.Color()})
	for i := range m.send {
		m.send[i] = msg
	}
	return m.send, false
}

type oracleLinialAlgorithm struct{ Delta int }

func (a oracleLinialAlgorithm) Name() string { return "oracle-linial-coloring" }

func (a oracleLinialAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	m := &oracleLinialMachine{linialMachine{send: make([]any, info.Degree)}}
	if err := m.reducer.init(info.ID, a.Delta, IDSpace63); err != nil {
		panic(err)
	}
	return m
}

// oracleTwoColorMachine is twoColorMachine with the Step it had before a
// step that learns no endpoint returned at once: every step type-checks its
// inbox and recomputes both send slots. It never sleeps.
type oracleTwoColorMachine struct{ twoColorMachine }

func (m *oracleTwoColorMachine) Idle(int) int { return 0 }

func (m *oracleTwoColorMachine) Step(round int, recv []any) ([]any, bool) {
	for p, msg := range recv[:min(len(recv), len(m.ends))] {
		if em, ok := msg.(endpointMsg); ok && !m.known[p] {
			m.ends[p] = em
			m.known[p] = true
		}
	}
	switch m.info.Degree {
	case 0:
		m.out = 0
		return nil, true
	case 1:
		var send []any
		if !m.sent[0] {
			m.send[0] = endpointMsg{id: m.info.ID, dist: 1}
			send = m.send[:1]
			m.sent[0] = true
		}
		if m.known[0] {
			m.out = m.colorFrom(endpointMsg{id: m.info.ID, dist: 0}, m.ends[0])
			return send, true
		}
		return send, false
	default:
		var send []any
		for p := 0; p < 2; p++ {
			other := 1 - p
			m.send[p] = nil
			if m.known[other] && !m.sent[p] {
				m.send[p] = endpointMsg{id: m.ends[other].id, dist: m.ends[other].dist + 1}
				m.sent[p] = true
				send = m.send[:]
			}
		}
		if m.known[0] && m.known[1] {
			m.out = m.colorFrom(m.ends[0], m.ends[1])
			return send, true
		}
		return send, false
	}
}

type oracleTwoColorAlgorithm struct{}

func (oracleTwoColorAlgorithm) Name() string { return "oracle-two-color-path" }

func (oracleTwoColorAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	return &oracleTwoColorMachine{twoColorMachine{info: info}}
}

// sendDigests wraps an algorithm so that each machine folds every message
// it sends, with the round, its node ID and the port, into its own FNV-1a
// digest. A wrapped machine sleeps when the algorithm's does, unless
// everyRound is set; the rounds the engine skipped are folded in with the
// sends that stood in them, so a sleeping run and one that steps every round
// give equal digests. After a run, digests maps each node ID to its
// machine's digest.
type sendDigests struct {
	alg        sim.Algorithm
	everyRound bool
	mu         sync.Mutex
	digests    map[uint64]hash.Hash64
}

func (a *sendDigests) Name() string { return a.alg.Name() }

func (a *sendDigests) NewMachine(info sim.NodeInfo) sim.Machine {
	m := &digestMachine{Machine: a.alg.NewMachine(info), id: info.ID, h: fnv.New64a(), last: -1}
	a.mu.Lock()
	a.digests[info.ID] = m.h
	a.mu.Unlock()
	if a.everyRound {
		return stepsEveryRound{m}
	}
	return m
}

// stepsEveryRound hides a machine's Idle, so the engine runs all its steps.
type stepsEveryRound struct{ sim.Machine }

type digestMachine struct {
	sim.Machine
	id   uint64
	h    hash.Hash64
	buf  []byte
	last int   // the round of the last step run
	sent []any // what that step sent, which stands while the node sleeps
}

func (m *digestMachine) Step(round int, recv []any) ([]any, bool) {
	for r := m.last + 1; r < round; r++ {
		m.fold(r, m.sent)
	}
	send, done := m.Machine.Step(round, recv)
	m.fold(round, send)
	m.last, m.sent = round, send
	return send, done
}

func (m *digestMachine) Idle(round int) int {
	if s, ok := m.Machine.(sim.Sleeper); ok {
		return s.Idle(round)
	}
	return 0
}

// fold adds the messages sent in a round to the digest.
func (m *digestMachine) fold(round int, send []any) {
	for port, msg := range send {
		if msg == nil {
			continue
		}
		b := m.buf[:0]
		for _, x := range []uint64{uint64(round), m.id, uint64(port)} {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		switch msg := msg.(type) {
		case colorMsg:
			b = binary.LittleEndian.AppendUint64(append(b, 0), uint64(msg.color))
		case endpointMsg:
			b = binary.LittleEndian.AppendUint64(append(b, 1), msg.id)
			b = binary.LittleEndian.AppendUint64(b, uint64(msg.dist))
		default:
			panic(fmt.Sprintf("unexpected message %T", msg))
		}
		m.h.Write(b)
		m.buf = b
	}
}

// TestNodeKernelsMatchOracle runs the Linial and two-coloring machines and
// their pre-shortcut Step bodies (the oracles above) on the same trees and
// IDs through every backend: sequential, 2 and 4 workers, and 2 and 3
// shards on both layouts. The real machines sleep through their idle steps
// and the oracles step every round; on one more sequential backend the real
// machines step every round too, since Step must give the same results
// whether or not its idle steps ran. Outputs, Rounds, TotalRounds, Messages
// and Steps must be deeply equal, and so must every node's digest of the
// (round, node, port, message) sequence it sent. The digest wrapper builds
// its machines one NewMachine at a time, so each real algorithm also runs
// unwrapped on every backend, where the engine builds its machines through
// NewMachines, and must give the oracle's Result too. Linial runs on
// Galton-Watson trees with up to 3 and 5 children, ladders, paths and a star
// with 12 leaves (above the stack scratch); the two-coloring on paths.
func TestNodeKernelsMatchOracle(t *testing.T) {
	type tc struct {
		name      string
		tr        *graph.Tree
		alg, want sim.Algorithm
	}
	var cases []tc
	add := func(name string, tr *graph.Tree, err error) {
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		delta := max(1, tr.MaxDegree())
		cases = append(cases, tc{name + "-linial", tr, LinialAlgorithm{Delta: delta}, oracleLinialAlgorithm{Delta: delta}})
	}
	for _, c := range []int{3, 5} {
		for _, seed := range []uint64{1, 2} {
			tr, err := graph.BuildGaltonWatson(600, c, seed)
			add(fmt.Sprintf("gw600-c%d-seed%d", c, seed), tr, err)
		}
	}
	for _, seed := range []uint64{3, 4} {
		tr, err := graph.BuildLadder(600, seed)
		add(fmt.Sprintf("ladder600-seed%d", seed), tr, err)
	}
	star, err := graph.BuildStar(13)
	add("star13", star, err)
	for _, n := range []int{1, 2, 3, 64, 2048} {
		tr, err := graph.BuildPath(n)
		add(fmt.Sprintf("path%d", n), tr, err)
		cases = append(cases, tc{fmt.Sprintf("path%d-2color", n), tr, TwoColorPathAlgorithm{}, oracleTwoColorAlgorithm{}})
	}
	type backend struct {
		name       string
		opts       []sim.Option
		everyRound bool
	}
	backends := []backend{
		{"seq", nil, false},
		{"seq-every-round", nil, true},
		{"par2", []sim.Option{sim.WithParallelism(2)}, false},
		{"par4", []sim.Option{sim.WithParallelism(4)}, false},
	}
	for _, k := range []int{2, 3} {
		for _, l := range []sim.ShardLayout{sim.LayoutRange, sim.LayoutSubtree} {
			backends = append(backends, backend{fmt.Sprintf("shard%d-%s", k, l), []sim.Option{sim.WithShards(k), sim.WithShardLayout(l)}, false})
		}
	}
	engine := func(tr *graph.Tree, b backend) *sim.Engine {
		// The star's schedule (830 rounds) outlasts the default round limit
		// of a 13-node run.
		return sim.NewEngine(append([]sim.Option{sim.WithIDs(sim.DefaultIDs(tr.N(), 7)), sim.WithMaxRounds(4*tr.N() + 1000)}, b.opts...)...)
	}
	run := func(tr *graph.Tree, alg sim.Algorithm, b backend) (*sim.Result, map[uint64]uint64) {
		t.Helper()
		rec := &sendDigests{alg: alg, everyRound: b.everyRound, digests: make(map[uint64]hash.Hash64)}
		res, err := engine(tr, b).Run(tr, rec)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		digests := make(map[uint64]uint64, len(rec.digests))
		for id, h := range rec.digests {
			digests[id] = h.Sum64()
		}
		return res, digests
	}
	for _, c := range cases {
		if _, ok := c.alg.(sim.SlabBuilder); !ok {
			t.Fatalf("%s: %s is not a sim.SlabBuilder", c.name, c.alg.Name())
		}
		for _, b := range backends {
			got, gotSent := run(c.tr, c.alg, b)
			want, wantSent := run(c.tr, c.want, b)
			slab, err := engine(c.tr, b).Run(c.tr, c.alg)
			if err != nil {
				t.Fatalf("%s on %s unwrapped: %v", c.name, b.name, err)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Outputs", slab.Outputs, want.Outputs},
				{"Rounds", slab.Rounds, want.Rounds},
				{"TotalRounds", slab.TotalRounds, want.TotalRounds},
				{"Messages", slab.Messages, want.Messages},
				{"Steps", slab.Steps, want.Steps},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s on %s unwrapped: %s differ from the oracle's", c.name, b.name, f.name)
				}
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Outputs", got.Outputs, want.Outputs},
				{"Rounds", got.Rounds, want.Rounds},
				{"TotalRounds", got.TotalRounds, want.TotalRounds},
				{"Messages", got.Messages, want.Messages},
				{"Steps", got.Steps, want.Steps},
				{"sent-message digests", gotSent, wantSent},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s on %s: %s differ from the oracle's", c.name, b.name, f.name)
				}
			}
		}
	}
}
