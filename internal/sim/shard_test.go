package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
)

// coreResult strips the per-shard statistics, leaving the fields the
// equivalence contract covers: Rounds, Outputs, TotalRounds, Messages.
func coreResult(r *Result) Result {
	c := *r
	c.Shards = nil
	return c
}

// shardShapes builds the adversarial boundary shapes of the equivalence
// sweep: paths (boundaries cut one edge), stars (every leaf's edge crosses
// once the center's range ends), caterpillars (legs straddle spine cuts),
// hierarchical lower-bound trees (deep attachment structure), and a balanced
// tree (wide fan-out near the cut).
func shardShapes(t *testing.T) map[string]*graph.Tree {
	t.Helper()
	shapes := map[string]*graph.Tree{}
	add := func(name string, tr *graph.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		shapes[name] = tr
	}
	p, err := graph.BuildPath(257)
	add("path257", p, err)
	s, err := graph.BuildStar(120)
	add("star120", s, err)
	c, err := graph.BuildCaterpillar(19, 6)
	add("caterpillar19x6", c, err)
	h, err := graph.BuildHierarchical([]int{5, 11})
	if err != nil {
		t.Fatal(err)
	}
	shapes["hierarchical5x11"] = h.Tree
	b, err := graph.BuildBalanced(4, 200)
	add("balanced4x200", b, err)
	return shapes
}

// TestShardedEquivalence sweeps shard counts, both shard layouts, and
// adversarial boundary shapes: every (shape, algorithm, k, layout)
// combination must reproduce the sequential Rounds, Outputs, TotalRounds,
// and Messages exactly. maxIDAlg exercises the frozen-output mirror
// (terminated boundary nodes keep informing remote neighbors); echoAlias
// forwards what it received across the bus; the subtree
// layout additionally exercises the permuted execution path end to end
// (results must come back in construction numbering).
func TestShardedEquivalence(t *testing.T) {
	algs := []Algorithm{tickAlg{rounds: 6}, echoAlias{rounds: 9}, maxIDAlg{}}
	for name, tr := range shardShapes(t) {
		ids := DefaultIDs(tr.N(), 42)
		for _, alg := range algs {
			seq, err := NewEngine(WithIDs(ids)).Run(tr, alg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, alg.Name(), err)
			}
			for _, k := range []int{1, 2, 3, 4, 7, 16, tr.N(), tr.N() + 5, -1} {
				for _, layout := range []ShardLayout{LayoutRange, LayoutSubtree} {
					got, err := NewEngine(WithIDs(ids), WithShards(k), WithShardLayout(layout)).Run(tr, alg)
					if err != nil {
						t.Fatalf("%s/%s shards=%d layout=%s: %v", name, alg.Name(), k, layout, err)
					}
					if !reflect.DeepEqual(coreResult(seq), coreResult(got)) {
						t.Fatalf("%s/%s shards=%d layout=%s diverges from sequential", name, alg.Name(), k, layout)
					}
				}
			}
		}
	}
}

// inputEchoAlg terminates immediately, outputting the node's LCL input — the
// probe that catches a layout permuting inputs and outputs inconsistently.
type inputEchoAlg struct{}

func (inputEchoAlg) Name() string { return "input-echo" }
func (inputEchoAlg) NewMachine(info NodeInfo) Machine {
	return inputEchoMachine{input: info.Input}
}

type inputEchoMachine struct{ input any }

func (inputEchoMachine) Step(int, []any) ([]any, bool) { return nil, true }
func (m inputEchoMachine) Output() any                 { return m.input }

// TestShardLayoutPermutesInputs pins the inverse-permutation contract for
// WithInputs: under the subtree layout each machine must still receive its
// own node's input, and outputs must land back at construction indices.
func TestShardLayoutPermutesInputs(t *testing.T) {
	for name, tr := range shardShapes(t) {
		n := tr.N()
		inputs := make([]any, n)
		for v := range inputs {
			inputs[v] = v * 10
		}
		res, err := NewEngine(WithInputs(inputs), WithShards(4), WithShardLayout(LayoutSubtree)).Run(tr, inputEchoAlg{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v < n; v++ {
			if res.Outputs[v] != v*10 {
				t.Fatalf("%s: output of node %d is %v, want %d", name, v, res.Outputs[v], v*10)
			}
		}
	}
}

// TestShardCountResolution pins the shard-count contract on every layout:
// WithShards(k) always resolves to exactly min(k, n) non-empty shards
// covering all n nodes. Before the balanced split, ceil-chunking silently
// produced fewer shards than requested (n=5, k=4 gave ranges 2+2+1 — three
// shards) and clamping hid the deviation; the balanced cuts make the
// resolved count exact, and this test makes any regression loud.
func TestShardCountResolution(t *testing.T) {
	shapes := map[string]*graph.Tree{"path5": mustPath(t, 5), "path10": mustPath(t, 10)}
	for name, tr := range shardShapes(t) {
		shapes[name] = tr
	}
	for name, tr := range shapes {
		n := tr.N()
		for _, k := range []int{2, 3, 4, 7, n - 1, n, n + 1, n + 5} {
			if k < 2 {
				continue
			}
			want := k
			if want > n {
				want = n
			}
			for _, layout := range []ShardLayout{LayoutRange, LayoutSubtree} {
				res, err := NewEngine(WithShards(k), WithShardLayout(layout)).Run(tr, tickAlg{rounds: 2})
				if err != nil {
					t.Fatalf("%s shards=%d layout=%s: %v", name, k, layout, err)
				}
				if len(res.Shards) != want {
					t.Fatalf("%s shards=%d layout=%s: resolved to %d shards, want %d",
						name, k, layout, len(res.Shards), want)
				}
				total := 0
				for _, s := range res.Shards {
					if s.Nodes < 1 {
						t.Fatalf("%s shards=%d layout=%s: shard %d is empty", name, k, layout, s.Shard)
					}
					total += s.Nodes
				}
				if total != n {
					t.Fatalf("%s shards=%d layout=%s: shards cover %d of %d nodes", name, k, layout, total, n)
				}
			}
		}
	}
}

// TestUnknownShardLayout: a typo'd layout must fail loudly, not silently
// fall back to the range split.
func TestUnknownShardLayout(t *testing.T) {
	if _, err := NewEngine(WithShards(2), WithShardLayout("zigzag")).Run(mustPath(t, 8), tickAlg{rounds: 1}); err == nil {
		t.Fatal("unknown layout accepted silently")
	}
}

// TestSubtreeLayoutReducesBoundary is the boundary-edge regression pin on
// the engine itself: on the shapes whose construction numbering scatters
// subtrees (caterpillar, hierarchical), the subtree layout's ShardStats must
// report at least 30% fewer boundary edges than the range layout at every
// differential shard count — and never more on any shape. The reduction is
// asserted on what the shards actually executed, not on the partitioner's
// claim: ShardStats.BoundaryEdges is the objective function made visible.
func TestSubtreeLayoutReducesBoundary(t *testing.T) {
	boundary := func(tr *graph.Tree, k int, layout ShardLayout) int {
		t.Helper()
		res, err := NewEngine(WithShards(k), WithShardLayout(layout)).Run(tr, tickAlg{rounds: 2})
		if err != nil {
			t.Fatalf("shards=%d layout=%s: %v", k, layout, err)
		}
		total := 0
		for _, s := range res.Shards {
			total += s.BoundaryEdges // each boundary edge appears in both incident shards
		}
		return total
	}
	shapes := shardShapes(t)
	for name, tr := range shapes {
		mustReduce := name == "caterpillar19x6" || name == "hierarchical5x11"
		for _, k := range []int{2, 4, 7} {
			rangeB := boundary(tr, k, LayoutRange)
			subtreeB := boundary(tr, k, LayoutSubtree)
			if subtreeB > rangeB {
				t.Errorf("%s shards=%d: subtree layout has %d boundary-edge endpoints, range %d — layout made it worse",
					name, k, subtreeB, rangeB)
			}
			if !mustReduce {
				continue
			}
			reduction := 1 - float64(subtreeB)/float64(rangeB)
			t.Logf("%s shards=%d: boundary edges %d -> %d (%.0f%% reduction)", name, k, rangeB/2, subtreeB/2, 100*reduction)
			if reduction < 0.30 {
				t.Errorf("%s shards=%d: subtree layout reduces boundary edges by only %.0f%% (%d -> %d), want >= 30%%",
					name, k, 100*reduction, rangeB/2, subtreeB/2)
			}
		}
	}
}

// lastWordAlg is the directed final-round boundary probe: node 0 counts down
// `rounds` rounds and, in its terminating round, sends the string "last-word"
// to every neighbor; every other node terminates one round later and outputs
// exactly what it received from port 0 in that final round. On a two-node
// range split the 0→1 edge is a shard boundary, so node 1's output is correct
// only if the bus delivers (a) the final-round real message and (b) gives it
// precedence over node 0's simultaneous frozen-output fill. An off-by-one
// exchange (deliver before the terminating round's sends, or fill first)
// makes node 1 output the frozen Terminated value or nil instead.
type lastWordAlg struct{ rounds int }

func (a lastWordAlg) Name() string { return "last-word" }
func (a lastWordAlg) NewMachine(info NodeInfo) Machine {
	return &lastWordMachine{rounds: a.rounds, info: info}
}

type lastWordMachine struct {
	rounds int
	info   NodeInfo
	heard  any
}

func (m *lastWordMachine) Step(round int, recv []any) ([]any, bool) {
	if m.info.ID == 1 { // the speaker (SequentialIDs: node 0)
		if round < m.rounds {
			return nil, false
		}
		send := make([]any, m.info.Degree)
		for i := range send {
			send[i] = "last-word"
		}
		return send, true
	}
	if round <= m.rounds { // listeners wait out the speaker's countdown
		return nil, false
	}
	m.heard = recv[0]
	return nil, true
}

func (m *lastWordMachine) Output() any {
	if m.info.ID == 1 {
		return "spoke"
	}
	if m.heard == nil {
		return "heard nothing"
	}
	return m.heard
}

// TestShardBoundaryFinalRoundMessage pins the cross-boundary exchange of the
// terminating round: the listener across the shard cut must observe the
// speaker's final real message, not its frozen output and not nothing.
func TestShardBoundaryFinalRoundMessage(t *testing.T) {
	tr := mustPath(t, 2)
	ids := SequentialIDs(2) // node 0 is the speaker
	const rounds = 5
	for _, k := range []int{1, 2} {
		for _, layout := range []ShardLayout{LayoutRange, LayoutSubtree} {
			res, err := NewEngine(WithIDs(ids), WithShards(k), WithShardLayout(layout)).Run(tr, lastWordAlg{rounds: rounds})
			if err != nil {
				t.Fatalf("shards=%d layout=%s: %v", k, layout, err)
			}
			if got := res.Outputs[1]; got != "last-word" {
				t.Fatalf("shards=%d layout=%s: listener output %v, want the final-round message", k, layout, got)
			}
			if res.Rounds[0] != rounds || res.Rounds[1] != rounds+1 {
				t.Fatalf("shards=%d layout=%s: rounds = %v", k, layout, res.Rounds)
			}
		}
	}
	// The same probe with the listener across a 3-shard cut of a longer path:
	// every interior listener hears its port-0 neighbor's frozen output (the
	// neighbor toward node 0 terminates in the same round), while node 1 —
	// adjacent to the speaker — still hears the real message first.
	tr = mustPath(t, 6)
	res, err := NewEngine(WithIDs(SequentialIDs(6)), WithShards(3)).Run(tr, lastWordAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEngine(WithIDs(SequentialIDs(6))).Run(tr, lastWordAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coreResult(seq), coreResult(res)) {
		t.Fatalf("sharded outputs %v diverge from sequential %v", res.Outputs, seq.Outputs)
	}
}

// TestShardStats pins the per-shard accounting on a 10-node path split in
// two: 5 nodes each, one boundary edge per shard, and — under
// tickAlg{rounds: R} — exactly R real messages crossing in each direction.
func TestShardStats(t *testing.T) {
	const n, rounds = 10, 3
	tr := mustPath(t, n)
	res, err := NewEngine(WithIDs(DefaultIDs(n, 1)), WithShards(2)).Run(tr, tickAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// tickAlg{rounds: R} steps every node in rounds 0..R, so each 5-node
	// shard performs 5*(R+1) machine steps.
	want := []ShardStats{
		{Shard: 0, Nodes: 5, BoundaryEdges: 1, MessagesCrossed: rounds, ActiveRounds: rounds + 1, Steps: 5 * (rounds + 1)},
		{Shard: 1, Nodes: 5, BoundaryEdges: 1, MessagesCrossed: rounds, ActiveRounds: rounds + 1, Steps: 5 * (rounds + 1)},
	}
	if !reflect.DeepEqual(res.Shards, want) {
		t.Fatalf("Shards = %+v, want %+v", res.Shards, want)
	}
	// WithParallelism is ignored under WithShards(k > 1), so it must not
	// change the per-shard accounting.
	res, err = NewEngine(WithIDs(DefaultIDs(n, 1)), WithParallelism(4), WithShards(2)).Run(tr, tickAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Shards, want) {
		t.Fatalf("WithParallelism(4): Shards = %+v, want %+v", res.Shards, want)
	}
	// Unsharded runs must not report shard statistics.
	res, err = NewEngine(WithIDs(DefaultIDs(n, 1))).Run(tr, tickAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != nil {
		t.Fatalf("unsharded run reports Shards = %+v", res.Shards)
	}
}

// TestShardedErrorPaths: the sharded backend must honor the round limit,
// context cancellation, and the nil-output contract with the same sentinel
// errors as the sequential backend.
func TestShardedErrorPaths(t *testing.T) {
	tr := mustPath(t, 64)
	if _, err := NewEngine(WithShards(4), WithMaxRounds(3)).Run(tr, forever{}); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("round limit: got %v, want ErrRoundLimit", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewEngine(WithShards(4), WithContext(ctx), WithMaxRounds(1<<30)).Run(tr, forever{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation: got %v, want wrapped context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", el)
	}
	cancel()
	if _, err := NewEngine(WithShards(4)).Run(tr, nilOutputAlg{}); !errors.Is(err, ErrNilOutput) {
		t.Fatalf("nil output: got %v, want ErrNilOutput", err)
	}
}

// nilOutputAlg terminates immediately with a nil output on every node.
type nilOutputAlg struct{}

func (nilOutputAlg) Name() string                { return "nil-output" }
func (nilOutputAlg) NewMachine(NodeInfo) Machine { return nilOutputMachine{} }

type nilOutputMachine struct{}

func (nilOutputMachine) Step(int, []any) ([]any, bool) { return nil, true }
func (nilOutputMachine) Output() any                   { return nil }

// BenchmarkShardedEngine measures the boundary-traffic overhead of the
// sharded backend against the sequential baseline on the same workload:
// tickAlg floods every edge every round, so each additional shard adds two
// boundary edges' worth of bus traffic per round on a path.
func BenchmarkShardedEngine(b *testing.B) {
	const n, rounds = 4096, 32
	tr, err := graph.BuildPath(n)
	if err != nil {
		b.Fatal(err)
	}
	ids := DefaultIDs(n, 1)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			eng := NewEngine(WithIDs(ids), WithShards(k))
			b.ReportAllocs()
			b.ResetTimer()
			var crossed int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(tr, tickAlg{rounds: rounds})
				if err != nil {
					b.Fatal(err)
				}
				crossed = 0
				for _, s := range res.Shards {
					crossed += s.MessagesCrossed
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*rounds), "ns/node-round")
			b.ReportMetric(float64(crossed), "boundary-msgs/run")
		})
	}
}
