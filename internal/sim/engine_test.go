package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// tick is a minimal algorithm used to measure pure engine overhead: every
// node sends a constant (pre-boxed) message to all neighbors for a fixed
// number of rounds, then terminates. Send buffers are allocated once per
// machine, so any steady-state allocation observed belongs to the engine.
var (
	tickMsg any = "tick"
	tickOut any = "done"
)

type tickAlg struct{ rounds int }

func (a tickAlg) Name() string { return "tick" }
func (a tickAlg) NewMachine(info NodeInfo) Machine {
	return &tickMachine{rounds: a.rounds, send: make([]any, info.Degree)}
}

type tickMachine struct {
	rounds int
	send   []any
}

func (m *tickMachine) Step(round int, recv []any) ([]any, bool) {
	if round >= m.rounds {
		return nil, true
	}
	for i := range m.send {
		m.send[i] = tickMsg
	}
	return m.send, false
}

func (m *tickMachine) Output() any { return tickOut }

// napTickAlg is tickAlg whose machines report their idle steps: every step
// after round 0 but the last sends what round 0 sent, so each node naps
// from round 1 until its last round.
type napTickAlg struct{ tickAlg }

func (a napTickAlg) NewMachine(info NodeInfo) Machine {
	return &napTickMachine{tickMachine{rounds: a.rounds, send: make([]any, info.Degree)}}
}

type napTickMachine struct{ tickMachine }

func (m *napTickMachine) Idle(round int) int { return m.rounds - 1 - round }

// forever never terminates; used to exercise cancellation and round limits.
type forever struct{}

func (forever) Name() string                { return "forever" }
func (forever) NewMachine(NodeInfo) Machine { return foreverMachine{} }

type foreverMachine struct{}

func (foreverMachine) Step(int, []any) ([]any, bool) { return nil, false }
func (foreverMachine) Output() any                   { return nil }

// echoAlias returns its recv slice as its send slice, which the engine
// contract permits; guards that a step reads one buffer and writes the
// other.
type echoAlias struct{ rounds int }

func (a echoAlias) Name() string { return "echo-alias" }
func (a echoAlias) NewMachine(info NodeInfo) Machine {
	return &echoAliasMachine{rounds: a.rounds}
}

type echoAliasMachine struct {
	rounds int
	got    int
}

func (m *echoAliasMachine) Step(round int, recv []any) ([]any, bool) {
	for _, x := range recv {
		if x != nil {
			m.got++
		}
	}
	if round >= m.rounds {
		return nil, true
	}
	if round == 0 {
		out := make([]any, len(recv))
		for i := range out {
			out[i] = tickMsg
		}
		return out, false
	}
	return recv, false // alias: forward exactly what was received
}

func (m *echoAliasMachine) Output() any { return m.got }

// TestEngineGoldenSemantics pins the simulator contract to concrete values:
// with tickAlg{rounds: R} on a path, every node terminates in round R, the
// execution takes R+1 rounds total, and exactly R rounds of full-degree
// sends are delivered.
func TestEngineGoldenSemantics(t *testing.T) {
	const n, rounds = 500, 7
	tr := mustPath(t, n)
	ids := DefaultIDs(n, 9)
	res, err := NewEngine(WithIDs(ids)).Run(tr, tickAlg{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Rounds {
		if r != rounds {
			t.Fatalf("node %d terminated in round %d, want %d", v, r, rounds)
		}
	}
	if res.TotalRounds != rounds+1 {
		t.Fatalf("TotalRounds = %d, want %d", res.TotalRounds, rounds+1)
	}
	// Each of the first `rounds` rounds delivers one message per directed
	// edge: 2(n-1) on a path.
	if want := int64(rounds * 2 * (n - 1)); res.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Messages, want)
	}
}

// TestEngineSequentialParallelEquivalence: identical seeds must yield
// bit-identical results at every parallelism level (the per-round barrier
// makes parallel stepping semantics-preserving).
func TestEngineSequentialParallelEquivalence(t *testing.T) {
	const n = 2000
	tr := mustPath(t, n)
	ids := DefaultIDs(n, 42)
	algs := []Algorithm{tickAlg{rounds: 5}, echoAlias{rounds: 9}}
	for _, alg := range algs {
		seq, err := NewEngine(WithIDs(ids), WithParallelism(1)).Run(tr, alg)
		if err != nil {
			t.Fatalf("%s sequential: %v", alg.Name(), err)
		}
		for _, p := range []int{2, 4, 8, -1} { // -1 = GOMAXPROCS
			par, err := NewEngine(WithIDs(ids), WithParallelism(p)).Run(tr, alg)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", alg.Name(), p, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s parallel=%d diverges from sequential", alg.Name(), p)
			}
		}
	}
}

// TestEngineContextCancellation: a canceled context must abort the run
// promptly with an error wrapping context.Canceled.
func TestEngineContextCancellation(t *testing.T) {
	tr := mustPath(t, 64)
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := NewEngine(
			WithContext(ctx),
			WithParallelism(p),
			WithMaxRounds(1<<30),
		).Run(tr, forever{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: got %v, want wrapped context.Canceled", p, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("parallelism=%d: cancellation took %v, want prompt return", p, el)
		}
		cancel()
	}
}

// TestEngineRoundLimit keeps the ErrRoundLimit contract.
func TestEngineRoundLimit(t *testing.T) {
	tr := mustPath(t, 8)
	_, err := NewEngine(WithMaxRounds(3)).Run(tr, forever{})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("got %v, want ErrRoundLimit", err)
	}
}

// TestEngineInputLengthValidation: mismatched option slices are rejected.
func TestEngineInputLengthValidation(t *testing.T) {
	tr := mustPath(t, 8)
	if _, err := NewEngine(WithIDs(make([]uint64, 3))).Run(tr, tickAlg{rounds: 1}); err == nil {
		t.Fatal("short ID slice accepted")
	}
	if _, err := NewEngine(WithInputs(make([]any, 3))).Run(tr, tickAlg{rounds: 1}); err == nil {
		t.Fatal("short input slice accepted")
	}
}

// TestEngineSteadyStateAllocs asserts the hot-loop allocation fix on every
// backend: after setup, extra rounds must not allocate (message buffers are
// reused via swap, the boxed Terminated value is made once per node, the
// round's units keep their backing arrays, and the sleep bookkeeping lives
// in per-run arrays), whether the nodes step every round or nap through
// them. The assertion compares whole-run allocations of a short and a long
// run on the same instance; the difference is the per-round churn.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const n, shortR, longR = 256, 8, 264
	tr := mustPath(t, n)
	ids := DefaultIDs(n, 3)
	for name, opts := range map[string][]Option{
		"seq":             nil,
		"par2":            {WithParallelism(2)},
		"shards2-range":   {WithShards(2), WithShardLayout(LayoutRange)},
		"shards3-subtree": {WithShards(3), WithShardLayout(LayoutSubtree)},
		"seq-napping":     nil,
		"shards2-napping": {WithShards(2)},
	} {
		eng := NewEngine(append([]Option{WithIDs(ids)}, opts...)...)
		runRounds := func(rounds int) func() {
			var alg Algorithm = tickAlg{rounds: rounds}
			if strings.HasSuffix(name, "-napping") {
				alg = napTickAlg{tickAlg{rounds: rounds}}
			}
			return func() {
				if _, err := eng.Run(tr, alg); err != nil {
					t.Fatal(err)
				}
			}
		}
		short := testing.AllocsPerRun(10, runRounds(shortR))
		long := testing.AllocsPerRun(10, runRounds(longR))
		churn := long - short
		t.Logf("%s: %.0f extra allocations over %d extra rounds", name, churn, longR-shortR)
		// Generous slack for runtime noise; the seed engine churned O(n) boxed
		// Terminated values per round, i.e. tens of thousands over this gap.
		if churn > 16 {
			t.Fatalf("%s: %.0f extra allocations over %d extra rounds; hot loop is churning",
				name, churn, longR-shortR)
		}
	}
}

// reuseAlg probes the send-buffer rule of Machine.Step: every machine
// returns the same send slice every round and, on its next Step, first
// poisons every entry and then overwrites it with a message naming the
// sender and the round. A backend that read a send slice after the
// machine's next Step would deliver poison or a later round's message.
// Nodes terminate at different rounds (from their input), so frozen outputs
// are delivered too. The output digests every (round, port, message)
// observed, and counts each message not sent in the previous round.
type reuseAlg struct{}

type reuseMsg struct {
	from  uint64
	round int
}

var reusePoison any = "poison"

func (reuseAlg) Name() string { return "send-reuse" }
func (reuseAlg) NewMachine(info NodeInfo) Machine {
	return &reuseMachine{info: info, last: info.Input.(int), send: make([]any, info.Degree)}
}

type reuseMachine struct {
	info   NodeInfo
	last   int
	send   []any
	digest uint64
	stale  int
}

func (m *reuseMachine) Step(round int, recv []any) ([]any, bool) {
	for p := range m.send {
		m.send[p] = reusePoison
	}
	for p, msg := range recv {
		var word uint64
		switch x := msg.(type) {
		case nil:
			continue
		case reuseMsg:
			if x.round != round-1 {
				m.stale++
			}
			word = x.from ^ uint64(x.round)<<48
		case Terminated:
			word = x.Output.(reuseOut).digest + 1
		default:
			m.stale++
		}
		m.digest = (m.digest^word^uint64(round)<<32^uint64(p))*0x100000001b3 + 1
	}
	for p := range m.send {
		m.send[p] = reuseMsg{from: m.info.ID, round: round}
	}
	return m.send, round >= m.last
}

type reuseOut struct {
	digest uint64
	stale  int
}

func (m *reuseMachine) Output() any { return reuseOut{m.digest, m.stale} }

// TestSendBufferReuseContract runs reuseAlg on a tree with cross-shard
// edges on the sequential, parallel and sharded backends (both layouts):
// every run must equal the sequential one exactly, and no machine may see a
// message from any round but the previous one.
func TestSendBufferReuseContract(t *testing.T) {
	tr, err := graph.BuildGaltonWatson(300, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.N()
	ids := DefaultIDs(n, 5)
	last := make([]any, n)
	for v := range last {
		last[v] = 2 + (v*2654435761)%17
	}
	run := func(opts ...Option) *Result {
		t.Helper()
		res, err := NewEngine(append([]Option{WithIDs(ids), WithInputs(last)}, opts...)...).Run(tr, reuseAlg{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run()
	for v, o := range seq.Outputs {
		if out := o.(reuseOut); out.stale != 0 {
			t.Fatalf("node %d saw %d messages not sent in the previous round", v, out.stale)
		}
	}
	for name, opts := range map[string][]Option{
		"parallel2":       {WithParallelism(2)},
		"shards3-range":   {WithShards(3), WithShardLayout(LayoutRange)},
		"shards3-subtree": {WithShards(3), WithShardLayout(LayoutSubtree)},
	} {
		got := run(opts...)
		if !reflect.DeepEqual(coreResult(got), *seq) {
			t.Errorf("%s diverges from the sequential backend", name)
		}
		if len(got.Shards) > 0 {
			var crossed int64
			for _, st := range got.Shards {
				crossed += st.MessagesCrossed
			}
			if crossed == 0 {
				t.Errorf("%s: no message crossed a shard boundary", name)
			}
		}
	}
}

// BenchmarkEngine measures engine overhead per node-round on a path (the
// degree-2 cache-friendly extreme) and a hierarchical lower-bound instance
// (the branchy shape the sweeps actually run on), and guards the allocation
// fix: run with -benchmem; steady-state allocs/op must stay flat in the
// round count (see TestEngineSteadyStateAllocs for the hard assertion).
// BENCH_engine.json records the committed before/after numbers of the flat
// CSR + struct-of-arrays refactor.
func BenchmarkEngine(b *testing.B) {
	const rounds = 32
	for _, in := range []struct {
		name  string
		build func() (*graph.Tree, error)
	}{
		{"path4096", func() (*graph.Tree, error) { return graph.BuildPath(4096) }},
		{"hier60x90", func() (*graph.Tree, error) {
			h, err := graph.BuildHierarchical([]int{60, 90})
			if err != nil {
				return nil, err
			}
			return h.Tree, nil
		}},
	} {
		tr, err := in.build()
		if err != nil {
			b.Fatal(err)
		}
		n := tr.N()
		ids := DefaultIDs(n, 1)
		for _, bc := range []struct {
			name string
			par  int
		}{{"sequential", 1}, {"parallel", -1}} {
			b.Run(in.name+"/"+bc.name, func(b *testing.B) {
				eng := NewEngine(WithIDs(ids), WithParallelism(bc.par))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(tr, tickAlg{rounds: rounds}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*rounds), "ns/node-round")
			})
		}
	}
}
