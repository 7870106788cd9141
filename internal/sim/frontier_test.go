package sim

// Differential validation of active-frontier scheduling: a retained
// full-sweep reference engine (the seed's push-redelivery semantics, written
// as simply as possible) is run against every backend on shapes and
// termination orders chosen to stress the frontier machinery — the star
// whose center outlives every leaf, the path drained by a left-to-right
// termination wave, the caterpillar whose legs die instantly while the spine
// runs on, and seeded random trees with pseudorandom per-node deadlines.
// probeAlg hashes every (round, port, message) observation into each node's
// output, so any deviation in what a machine receives — a missed frozen
// fill, a double delivery, a final-round precedence flip — changes Outputs
// and fails the DeepEqual.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// fullSweepRun is the reference oracle: a Θ(n) -per-round engine that steps
// every non-done node in index order and pushes frozen outputs into empty
// next-round slots after each round, mirroring the pre-frontier engine. It
// never skips a step, so a Sleeper's idle steps run too. It counts Steps
// exactly like the real backends (one per round a node is undecided) and
// applies the fixed round-limit rule (an algorithm needing exactly
// maxRounds executed rounds succeeds; maxRounds+1 fails). With a non-nil
// owner (owner[v] = shard of construction node v) it also reports the
// ShardStats a sharded run of that partition must report.
func fullSweepRun(t *graph.Tree, alg Algorithm, ids []uint64, inputs []any, maxRounds int, owner []int32) (*Result, error) {
	n := t.N()
	machines := make([]Machine, n)
	done := make([]bool, n)
	frozen := make([]any, n)
	inbox := make([][]any, n)
	next := make([][]any, n)
	for v := 0; v < n; v++ {
		var input any
		if inputs != nil {
			input = inputs[v]
		}
		machines[v] = alg.NewMachine(NodeInfo{ID: ids[v], Degree: t.Degree(v), N: n, Input: input})
		inbox[v] = make([]any, t.Degree(v))
		next[v] = make([]any, t.Degree(v))
	}
	// portBack[v][p] is the port of neighbor nbrs[v][p] leading back to v.
	portBack := make([][]int, n)
	for v := 0; v < n; v++ {
		portBack[v] = make([]int, t.Degree(v))
		for p, u := range t.Neighbors(v) {
			for q, w := range t.Neighbors(u) {
				if w == v {
					portBack[v][p] = q
				}
			}
		}
	}
	res := &Result{Rounds: make([]int, n), Outputs: make([]any, n)}
	if owner != nil {
		k := 0
		for _, o := range owner {
			k = max(k, int(o)+1)
		}
		res.Shards = make([]ShardStats, k)
		for i := range res.Shards {
			res.Shards[i].Shard = i
		}
		for v := 0; v < n; v++ {
			res.Shards[owner[v]].Nodes++
			for _, u := range t.Neighbors(v) {
				if owner[u] != owner[v] {
					res.Shards[owner[v]].BoundaryEdges++
				}
			}
		}
	}
	remaining := n
	for round := 0; ; round++ {
		if remaining == 0 {
			res.TotalRounds = round
			return res, nil
		}
		if round >= maxRounds {
			return nil, fmt.Errorf("%w: oracle limit=%d", ErrRoundLimit, maxRounds)
		}
		if owner != nil {
			for i := range res.Shards {
				for v := 0; v < n; v++ {
					if owner[v] == int32(i) && !done[v] {
						res.Shards[i].ActiveRounds++
						break
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			send, fin := machines[v].Step(round, inbox[v])
			res.Steps++
			if owner != nil {
				res.Shards[owner[v]].Steps++
			}
			for p := 0; p < len(send) && p < t.Degree(v); p++ {
				if send[p] != nil {
					u := t.Neighbors(v)[p]
					next[u][portBack[v][p]] = send[p]
					res.Messages++
					if owner != nil && owner[u] != owner[v] {
						res.Shards[owner[v]].MessagesCrossed++
					}
				}
			}
			clearAny(inbox[v])
			if fin {
				done[v] = true
				remaining--
				res.Rounds[v] = round
				res.Outputs[v] = machines[v].Output()
				frozen[v] = Terminated{Output: machines[v].Output()}
			}
		}
		// Push redelivery: every terminated node refills its neighbors' empty
		// slots for the next round (real messages take precedence).
		for v := 0; v < n; v++ {
			if !done[v] {
				continue
			}
			for p, u := range t.Neighbors(v) {
				if done[u] {
					continue
				}
				if slot := &next[u][portBack[v][p]]; *slot == nil {
					*slot = frozen[v]
				}
			}
		}
		inbox, next = next, inbox
	}
}

func clearAny(xs []any) {
	for i := range xs {
		xs[i] = nil
	}
}

// probeAlg terminates node v in round deadline(v) (taken from the node's
// input), sends a distinct tagged message on every port in every round up to
// and including the terminating one, and outputs an FNV hash of every
// (round, port, message) it observed. Frozen Terminated values, real
// messages, and nil slots all hash differently, so the output is a
// transcript digest: two engines agree on Outputs iff every machine saw
// byte-identical receive slices in every round.
type probeAlg struct{}

func (probeAlg) Name() string { return "probe" }
func (probeAlg) NewMachine(info NodeInfo) Machine {
	return &probeMachine{info: info, deadline: info.Input.(int), h: fnv.New64a()}
}

type probeMachine struct {
	info     NodeInfo
	deadline int
	h        interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	send []any
}

func (m *probeMachine) Step(round int, recv []any) ([]any, bool) {
	for p, msg := range recv {
		if msg != nil {
			fmt.Fprintf(m.h, "r%d p%d %v;", round, p, msg)
		}
	}
	if m.send == nil {
		m.send = make([]any, m.info.Degree)
	}
	for p := range m.send {
		m.send[p] = fmt.Sprintf("id%d r%d", m.info.ID, round)
	}
	return m.send, round >= m.deadline
}

func (m *probeMachine) Output() any { return m.h.Sum64() }

// frontierShapes builds the adversarial (tree, deadline) instances of the
// differential sweep. Deadlines are per-node inputs interpreted by probeAlg.
func frontierShapes(t *testing.T) map[string]struct {
	tree      *graph.Tree
	deadlines []any
} {
	t.Helper()
	out := map[string]struct {
		tree      *graph.Tree
		deadlines []any
	}{}
	add := func(name string, tr *graph.Tree, err error, deadline func(v int) int) {
		t.Helper()
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		ds := make([]any, tr.N())
		for v := range ds {
			ds[v] = deadline(v)
		}
		out[name] = struct {
			tree      *graph.Tree
			deadlines []any
		}{tr, ds}
	}
	// Star, center (node 0) last: every leaf terminates in round 0 and the
	// frontier is a single node for 40 rounds — the paper's extreme regime.
	s, err := graph.BuildStar(90)
	add("star-center-last", s, err, func(v int) int {
		if v == 0 {
			return 40
		}
		return 0
	})
	// Path drained left to right: node v terminates in round v, so the
	// frontier is a shrinking suffix sweeping across every shard boundary.
	p, err := graph.BuildPath(97)
	add("path-endpoint-wave", p, err, func(v int) int { return v })
	// Caterpillar: legs die immediately, the spine counts down at different
	// rates — mixed-degree nodes with long-dead neighbors.
	c, err := graph.BuildCaterpillar(17, 5)
	add("caterpillar-spine-last", c, err, func(v int) int {
		if v < 17 { // spine nodes come first in the builder's layout
			return 3 + (v*7)%13
		}
		return 0
	})
	// Seeded random trees with pseudorandom deadlines: no structure for the
	// scheduler to get accidentally right.
	g, err := graph.BuildGaltonWatson(150, 4, 7)
	add("gw-random", g, err, func(v int) int { return (v*2654435761 + 13) % 19 })
	return out
}

// TestFrontierMatchesFullSweepOracle is the differential suite: on every
// shape, the sequential, parallel, and sharded frontier backends must
// reproduce the full-sweep oracle's Rounds, Outputs, TotalRounds, Messages,
// and Steps exactly.
func TestFrontierMatchesFullSweepOracle(t *testing.T) {
	for name, shape := range frontierShapes(t) {
		ids := DefaultIDs(shape.tree.N(), 11)
		want, err := fullSweepRun(shape.tree, probeAlg{}, ids, shape.deadlines, 4*shape.tree.N()+64, nil)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		backends := map[string]*Engine{
			"sequential":      NewEngine(WithIDs(ids), WithInputs(shape.deadlines)),
			"parallel2":       NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithParallelism(2)),
			"parallelN":       NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithParallelism(-1)),
			"shards2":         NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(2)),
			"shards3":         NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(3)),
			"shards7":         NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(7)),
			"shards2-subtree": NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(2), WithShardLayout(LayoutSubtree)),
			"shards3-subtree": NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(3), WithShardLayout(LayoutSubtree)),
			"shards7-subtree": NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithShards(7), WithShardLayout(LayoutSubtree)),
			// WithParallelism is ignored under WithShards(k > 1): the shards
			// are the units of concurrency.
			"parallel4+shards3":         NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithParallelism(4), WithShards(3)),
			"parallel4+shards3-subtree": NewEngine(WithIDs(ids), WithInputs(shape.deadlines), WithParallelism(4), WithShards(3), WithShardLayout(LayoutSubtree)),
		}
		for bname, eng := range backends {
			got, err := eng.Run(shape.tree, probeAlg{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bname, err)
			}
			if !reflect.DeepEqual(*want, coreResult(got)) {
				t.Errorf("%s/%s diverges from full-sweep oracle:\n got %+v\nwant %+v",
					name, bname, coreResult(got), *want)
			}
		}
	}
}

// TestFrontierFinalMessagePrecedence re-runs the last-word probe (a
// terminating node's final real message must beat its frozen output) on the
// parallel backend; shard_test.go covers the sharded backend.
func TestFrontierFinalMessagePrecedence(t *testing.T) {
	tr := mustPath(t, 2)
	for _, workers := range []int{1, 2, -1} {
		res, err := NewEngine(WithIDs(SequentialIDs(2)), WithParallelism(workers)).
			Run(tr, lastWordAlg{rounds: 5})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Outputs[1]; got != "last-word" {
			t.Fatalf("workers=%d: listener output %v, want the final-round message", workers, got)
		}
	}
}

// badPortAlg sends a non-nil message on port Degree — one beyond the last
// valid port — in round `at`. Before the frontier rewrite such sends were
// silently truncated.
type badPortAlg struct{ at int }

func (badPortAlg) Name() string { return "bad-port" }
func (a badPortAlg) NewMachine(info NodeInfo) Machine {
	return &badPortMachine{info: info, at: a.at}
}

type badPortMachine struct {
	info NodeInfo
	at   int
}

func (m *badPortMachine) Step(round int, recv []any) ([]any, bool) {
	send := make([]any, m.info.Degree+1)
	if round >= m.at {
		send[m.info.Degree] = "overflow"
	}
	return send, false
}

func (m *badPortMachine) Output() any { return "unreachable" }

// TestBadPortRejected: a send on a port beyond the degree must fail loudly
// with ErrBadPort on every backend, while an over-long send slice whose
// excess entries are all nil stays legal (nil means "no message").
func TestBadPortRejected(t *testing.T) {
	tr := mustPath(t, 12)
	for bname, eng := range map[string]*Engine{
		"sequential": NewEngine(),
		"parallel":   NewEngine(WithParallelism(3)),
		"sharded":    NewEngine(WithShards(3)),
	} {
		_, err := eng.Run(tr, badPortAlg{at: 2})
		if !errors.Is(err, ErrBadPort) {
			t.Fatalf("%s: got %v, want ErrBadPort", bname, err)
		}
	}
	// The nil-padded variant must run clean: badPortAlg with a never-reached
	// trigger round returns Degree+1-length slices with a nil tail forever,
	// so cap the run with tickAlg instead — a machine returning a longer
	// all-nil-tail slice is what nilTailAlg pins.
	if _, err := NewEngine().Run(tr, nilTailAlg{rounds: 3}); err != nil {
		t.Fatalf("nil tail beyond degree must be legal, got %v", err)
	}
}

// nilTailAlg returns send slices longer than the degree with nil excess
// entries — legal by the Machine contract ("missing entries mean no
// message").
type nilTailAlg struct{ rounds int }

func (nilTailAlg) Name() string { return "nil-tail" }
func (a nilTailAlg) NewMachine(info NodeInfo) Machine {
	return &nilTailMachine{deg: info.Degree, rounds: a.rounds}
}

type nilTailMachine struct{ deg, rounds int }

func (m *nilTailMachine) Step(round int, recv []any) ([]any, bool) {
	send := make([]any, m.deg+4)
	for p := 0; p < m.deg; p++ {
		send[p] = "tick"
	}
	return send, round >= m.rounds
}

func (m *nilTailMachine) Output() any { return "ok" }

// TestRoundLimitExact pins the fixed off-by-one: tickAlg{rounds: R} needs
// exactly R+1 executed rounds (0..R), so WithMaxRounds(R+1) succeeds and
// WithMaxRounds(R) — under which the algorithm needs maxRounds+1 rounds —
// fails. The seed engine allowed maxRounds+1 rounds through.
func TestRoundLimitExact(t *testing.T) {
	const R = 3
	tr := mustPath(t, 10)
	for bname, mk := range map[string]func(maxRounds int) *Engine{
		"sequential": func(m int) *Engine { return NewEngine(WithMaxRounds(m)) },
		"parallel":   func(m int) *Engine { return NewEngine(WithMaxRounds(m), WithParallelism(2)) },
		"sharded":    func(m int) *Engine { return NewEngine(WithMaxRounds(m), WithShards(2)) },
	} {
		res, err := mk(R+1).Run(tr, tickAlg{rounds: R})
		if err != nil {
			t.Fatalf("%s: algorithm needing exactly maxRounds rounds must succeed: %v", bname, err)
		}
		if res.TotalRounds != R+1 {
			t.Fatalf("%s: TotalRounds = %d, want %d", bname, res.TotalRounds, R+1)
		}
		if _, err := mk(R).Run(tr, tickAlg{rounds: R}); !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("%s: algorithm needing maxRounds+1 rounds must fail, got %v", bname, err)
		}
	}
}

// TestStepsInvariant: Steps counts one unit per Machine.Step call, so it
// always equals SumRounds() + n, identically on every backend, and the
// sharded per-shard Steps sum to it.
func TestStepsInvariant(t *testing.T) {
	tr, err := graph.BuildCaterpillar(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.N()
	ids := DefaultIDs(n, 5)
	for bname, eng := range map[string]*Engine{
		"sequential": NewEngine(WithIDs(ids)),
		"parallel":   NewEngine(WithIDs(ids), WithParallelism(4)),
		"sharded":    NewEngine(WithIDs(ids), WithShards(4)),
	} {
		res, err := eng.Run(tr, maxIDAlg{})
		if err != nil {
			t.Fatalf("%s: %v", bname, err)
		}
		if want := res.SumRounds() + int64(n); res.Steps != want {
			t.Fatalf("%s: Steps = %d, want SumRounds+n = %d", bname, res.Steps, want)
		}
		if res.Shards != nil {
			var sum int64
			for _, s := range res.Shards {
				sum += s.Steps
			}
			if sum != res.Steps {
				t.Fatalf("%s: per-shard steps sum to %d, Result.Steps = %d", bname, sum, res.Steps)
			}
		}
	}
}
