package sim

// Differential tests of idle-step skipping: napAlg sleeps at random — timed
// naps with standing sends, waits for a real message, and UntilMessage
// reports the engine must ignore — and hashes everything it receives in the
// steps it does not skip. Every backend and layout must reproduce
// fullSweepRun, which runs every idle step, down to the last ShardStats
// field.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// napInput is a node's input to napAlg: it terminates in its first
// non-idle step at round deadline or later, and may wait for a message only
// when listen is set.
type napInput struct {
	deadline int
	listen   bool
}

// napAlg is probeAlg with sleeps drawn from a per-node stream seeded by seed
// and the node's ID. After each non-idle step a node either stays awake,
// naps 1-9 rounds (now and then up to 72, which regrows the engine's wake
// calendar while other naps are pending) with some of its ports left
// silent, waits for a real
// message having sent nothing (listen nodes only), or reports UntilMessage
// after sending, which the engine must ignore. Its idle steps return their
// nap's sends unchanged, or nothing while it waits, and read nothing, so a
// run that skips them and one that steps them see the same transcript.
type napAlg struct{ seed uint64 }

func (napAlg) Name() string { return "nap-probe" }
func (a napAlg) NewMachine(info NodeInfo) Machine {
	in := info.Input.(napInput)
	return &napMachine{info: info, napInput: in, rng: a.seed ^ info.ID*0x9e3779b97f4a7c15, until: -1, h: fnv.New64a()}
}

type napMachine struct {
	info NodeInfo
	napInput
	rng     uint64
	until   int  // the steps of rounds up to until are idle
	waiting bool // the steps are idle until one receives a real message
	claim   bool // UntilMessage after a step that sent: not a wait
	send    []any
	h       interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func (m *napMachine) draw() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	return mix(m.rng)
}

// fill puts a tagged message on every port, leaving port p silent when bit
// p of silent is set.
func (m *napMachine) fill(round int, silent uint64) []any {
	if m.send == nil {
		m.send = make([]any, m.info.Degree)
	}
	for p := range m.send {
		m.send[p] = nil
		if silent>>(p%64)&1 == 0 {
			m.send[p] = fmt.Sprintf("id%d r%d p%d", m.info.ID, round, p)
		}
	}
	return m.send
}

func (m *napMachine) Step(round int, recv []any) ([]any, bool) {
	if round <= m.until {
		return m.send, false
	}
	if m.waiting {
		heard := false
		for _, msg := range recv {
			heard = heard || msg != nil && isReal(msg)
		}
		if !heard {
			return nil, false
		}
		m.waiting = false
	}
	m.claim = false
	for p, msg := range recv {
		if msg != nil {
			fmt.Fprintf(m.h, "r%d p%d %v;", round, p, msg)
		}
	}
	d := m.draw()
	if round >= m.deadline {
		// A listener may leave some ports silent in its final round; every
		// other node's final messages wake the listeners next to it.
		silent := uint64(0)
		if m.listen {
			silent = d >> 8
		}
		return m.fill(round, silent), true
	}
	switch c := d % 8; {
	case c < 3:
		return m.fill(round, 0), false
	case c < 6:
		m.until = round + 1 + int(d>>8%9)
		if d>>24%16 == 0 {
			m.until += int(d >> 32 % 64)
		}
		return m.fill(round, d>>16), false
	case c == 6 && m.listen:
		m.waiting = true
		if d>>8&1 == 0 {
			return nil, false
		}
		return make([]any, m.info.Degree+1), false
	default:
		m.claim = true
		return m.fill(round, 0), false
	}
}

func (m *napMachine) Idle(round int) int {
	switch {
	case m.until > round:
		return m.until - round
	case m.waiting, m.claim:
		return UntilMessage
	}
	return 0
}

func (m *napMachine) Output() any { return m.h.Sum64() }

// napInputs draws every node's deadline in [0, 30) from seed. Nodes at odd
// depth from node 0 may listen, and each keeps its deadline at most its
// parent's: a listener starts waiting only before its deadline, and its
// parent, which never listens, sends it a real message when it terminates
// at or after that deadline, so no run waits forever.
func napInputs(t *graph.Tree, seed uint64) []any {
	depth := t.BFS(0)
	deadline := make([]int, t.N())
	for v := range deadline {
		deadline[v] = int(mix(seed+uint64(v)*gamma) % 30)
	}
	inputs := make([]any, t.N())
	for v := range inputs {
		in := napInput{deadline: deadline[v], listen: depth[v]%2 == 1}
		if in.listen {
			for _, u := range t.Neighbors(v) {
				if depth[u] == depth[v]-1 {
					in.deadline = min(in.deadline, deadline[u])
				}
			}
		}
		inputs[v] = in
	}
	return inputs
}

// shardOwners returns the shard of every construction node under a k-shard
// run of the given layout, as the engine resolves it.
func shardOwners(t *graph.Tree, k int, layout ShardLayout) []int32 {
	k = min(k, t.N())
	lay := &graph.Layout{Cuts: graph.RangeCuts(t.N(), k)}
	if layout == LayoutSubtree {
		lay = graph.Partition(t, k)
	}
	pos := lay.Owners()
	if lay.Perm == nil {
		return pos
	}
	owner := make([]int32, t.N())
	for v, p := range lay.Perm {
		owner[v] = pos[p]
	}
	return owner
}

// sleepBackends are the backends every sleeping run is checked on, with the
// shard count and layout the oracle needs for their ShardStats.
var sleepBackends = []struct {
	name   string
	opts   []Option
	shards int
	layout ShardLayout
}{
	{"seq", nil, 0, ""},
	{"par2", []Option{WithParallelism(2)}, 0, ""},
	{"par4", []Option{WithParallelism(4)}, 0, ""},
	{"shards2-range", []Option{WithShards(2), WithShardLayout(LayoutRange)}, 2, LayoutRange},
	{"shards3-range", []Option{WithShards(3), WithShardLayout(LayoutRange)}, 3, LayoutRange},
	{"shards2-subtree", []Option{WithShards(2), WithShardLayout(LayoutSubtree)}, 2, LayoutSubtree},
	{"shards3-subtree", []Option{WithShards(3), WithShardLayout(LayoutSubtree)}, 3, LayoutSubtree},
}

// napRounds bounds every napAlg run: a node naps at most 72 rounds, from a
// round before its deadline (at most 29), so a node that never listens
// steps for the last time by round 101 and a listener by round 102, when
// its parent's last message reaches it.
const napRounds = 103

// checkAgainstFullSweep runs alg on every sleep backend and requires the
// full Result, ShardStats included, to equal fullSweepRun's. It returns the
// Step calls the sequential backend made.
func checkAgainstFullSweep(t *testing.T, name string, tr *graph.Tree, alg Algorithm, ids []uint64, inputs []any) int64 {
	t.Helper()
	var calls int64
	for _, b := range sleepBackends {
		var owner []int32
		if b.shards > 1 && tr.N() > 1 {
			owner = shardOwners(tr, b.shards, b.layout)
		}
		want, err := fullSweepRun(tr, alg, ids, inputs, napRounds, owner)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		counted := &stepCounter{alg: alg}
		got, err := NewEngine(append([]Option{WithIDs(ids), WithInputs(inputs), WithMaxRounds(napRounds)}, b.opts...)...).Run(tr, counted)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, b.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s diverges from the full sweep:\n got %+v\nwant %+v", name, b.name, *got, *want)
		}
		if b.name == "seq" {
			calls = counted.calls.Load()
		}
	}
	return calls
}

// TestSleepersMatchFullSweep runs napAlg on Galton-Watson trees, ladders, a
// star and paths, every node sleeping at random, against the full sweep,
// and checks that the engine skipped at least a third of the steps. The
// first seed adds a larger Galton-Watson tree, with rounds of inlineFrontier
// awake nodes or more, which the parallel and sharded backends hand off to
// their workers.
func TestSleepersMatchFullSweep(t *testing.T) {
	var calls, steps int64
	for seed := uint64(1); seed <= 4; seed++ {
		gw, err := graph.BuildGaltonWatson(120, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		lad, err := graph.BuildLadder(90, seed)
		if err != nil {
			t.Fatal(err)
		}
		star := mustStar(t, 15)
		path := mustPath(t, 40)
		trees := map[string]*graph.Tree{"gw": gw, "ladder": lad, "star": star, "path": path}
		if seed == 1 {
			if trees["gw-dense"], err = graph.BuildGaltonWatson(3*inlineFrontier, 3, seed); err != nil {
				t.Fatal(err)
			}
		}
		for name, tr := range trees {
			inputs := napInputs(tr, seed)
			calls += checkAgainstFullSweep(t, fmt.Sprintf("%s-seed%d", name, seed), tr, napAlg{seed: seed}, DefaultIDs(tr.N(), seed), inputs)
			res, err := NewEngine(WithIDs(DefaultIDs(tr.N(), seed)), WithInputs(inputs), WithMaxRounds(napRounds)).Run(tr, napAlg{seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			steps += res.Steps
		}
	}
	t.Logf("%d of %d steps executed", calls, steps)
	if 3*calls > 2*steps {
		t.Fatalf("%d of %d steps executed: the probe hardly sleeps", calls, steps)
	}
}

// FuzzEngineMatchesFullSweep draws a Galton-Watson tree or a ladder and a
// napAlg seed, and requires every backend and layout to reproduce the full
// sweep's Result and ShardStats exactly.
func FuzzEngineMatchesFullSweep(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint8(0))
	f.Add(uint64(2), uint16(150), uint8(1))
	f.Add(uint64(3), uint16(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, shape uint8) {
		n := 2 + int(size)%199
		var tr *graph.Tree
		var err error
		if shape%2 == 0 {
			tr, err = graph.BuildGaltonWatson(n, 2+int(shape/2)%3, seed)
		} else {
			tr, err = graph.BuildLadder(n, seed)
		}
		if err != nil {
			t.Skip(err)
		}
		checkAgainstFullSweep(t, "fuzz", tr, napAlg{seed: seed}, DefaultIDs(tr.N(), seed), napInputs(tr, seed))
	})
}

// longNapAlg naps from round 0 until round `until`, sending its ID on every
// port, then terminates with the number of messages it heard.
type longNapAlg struct{ until int }

func (longNapAlg) Name() string { return "long-nap" }
func (a longNapAlg) NewMachine(info NodeInfo) Machine {
	send := make([]any, info.Degree)
	for p := range send {
		send[p] = info.ID
	}
	return &longNapMachine{until: a.until, send: send}
}

type longNapMachine struct {
	until, heard, steps int
	send                []any
}

func (m *longNapMachine) Step(round int, recv []any) ([]any, bool) {
	m.steps++
	if round < m.until {
		return m.send, false
	}
	for _, x := range recv {
		if x != nil {
			m.heard++
		}
	}
	return nil, true
}

func (m *longNapMachine) Idle(round int) int { return m.until - 1 - round }
func (m *longNapMachine) Output() any        { return m.heard }

// TestLongNapsWakeForIdleSteps: a nap longer than the calendar holds is cut
// into naps of maxNap rounds with one idle step after each, and a nap past
// the round limit is cut at the limit; neither changes a count. A node
// napping 2·maxNap+300 rounds steps four times: its first step, one idle
// step after each of two full naps, and its last step.
func TestLongNapsWakeForIdleSteps(t *testing.T) {
	tr := mustPath(t, 5)
	const until = 2*maxNap + 300
	counts := &stepCounter{alg: longNapAlg{until: until}}
	res, err := NewEngine(WithMaxRounds(until+1)).Run(tr, counts)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(tr.N())
	if res.Steps != n*(until+1) || res.Messages != 2*(n-1)*until || res.TotalRounds != until+1 {
		t.Fatalf("steps %d, messages %d, total rounds %d", res.Steps, res.Messages, res.TotalRounds)
	}
	if calls := counts.calls.Load(); calls != 4*n {
		t.Fatalf("%d Step calls for %d nodes, want 4 per node", calls, n)
	}
	for v, out := range res.Outputs {
		if out != tr.Degree(v) {
			t.Fatalf("node %d heard %v messages in its last round, want %d", v, out, tr.Degree(v))
		}
	}
	if _, err := NewEngine(WithMaxRounds(until)).Run(tr, longNapAlg{until: until}); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("a nap past the round limit: got %v, want ErrRoundLimit", err)
	}
}

// stepCounter counts the Step calls of alg's machines and forwards Idle.
type stepCounter struct {
	alg   Algorithm
	calls atomic.Int64
}

func (c *stepCounter) Name() string { return c.alg.Name() }
func (c *stepCounter) NewMachine(info NodeInfo) Machine {
	return &countedMachine{Machine: c.alg.NewMachine(info), c: c}
}

type countedMachine struct {
	Machine
	c *stepCounter
}

func (m *countedMachine) Step(round int, recv []any) ([]any, bool) {
	m.c.calls.Add(1)
	return m.Machine.Step(round, recv)
}

func (m *countedMachine) Idle(round int) int {
	if s, ok := m.Machine.(Sleeper); ok {
		return s.Idle(round)
	}
	return 0
}
