package sim

import (
	"testing"

	"repro/internal/graph"
)

// maxIDAlg floods the maximum identifier: each node terminates once its
// known maximum has been stable for eccentricity-many rounds. To keep the
// test algorithm simple it terminates after exactly N rounds (a valid, if
// slow, LOCAL algorithm) and outputs the maximum ID it has seen.
type maxIDAlg struct{}

func (maxIDAlg) Name() string { return "flood-max-id" }

func (maxIDAlg) NewMachine(info NodeInfo) Machine {
	return &maxIDMachine{info: info, best: info.ID}
}

type maxIDMachine struct {
	info NodeInfo
	best uint64
}

func (m *maxIDMachine) Step(round int, recv []any) ([]any, bool) {
	for _, msg := range recv {
		switch v := msg.(type) {
		case uint64:
			if v > m.best {
				m.best = v
			}
		case Terminated:
			if id, ok := v.Output.(uint64); ok && id > m.best {
				m.best = id
			}
		}
	}
	if round >= m.info.N {
		return nil, true
	}
	send := make([]any, m.info.Degree)
	for i := range send {
		send[i] = m.best
	}
	return send, false
}

func (m *maxIDMachine) Output() any { return m.best }

func TestFloodMaxIDConverges(t *testing.T) {
	tr, err := graph.BuildCaterpillar(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := DefaultIDs(tr.N(), 7)
	res, err := NewEngine(WithIDs(ids)).Run(tr, maxIDAlg{})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for _, id := range ids {
		if id > want {
			want = id
		}
	}
	for v, out := range res.Outputs {
		if out.(uint64) != want {
			t.Fatalf("node %d output %v, want %v", v, out, want)
		}
	}
}

// copyNeighborAlg models the weighted-LCL dependency: node 0 (the "active"
// node, input "A") terminates at a fixed round with output "X"; all other
// nodes wait until some neighbor has terminated and copy its output. This
// exercises the frozen-output (Terminated) delivery semantics.
type copyNeighborAlg struct{ activeDelay int }

func (copyNeighborAlg) Name() string { return "copy-neighbor" }

func (a copyNeighborAlg) NewMachine(info NodeInfo) Machine {
	return &copyMachine{info: info, delay: a.activeDelay}
}

type copyMachine struct {
	info  NodeInfo
	delay int
	out   string
}

func (m *copyMachine) Step(round int, recv []any) ([]any, bool) {
	if m.info.Input == "A" {
		if round >= m.delay {
			m.out = "X"
			return nil, true
		}
		return nil, false
	}
	for _, msg := range recv {
		if term, ok := msg.(Terminated); ok {
			m.out = term.Output.(string)
			return nil, true
		}
	}
	return nil, false
}

func (m *copyMachine) Output() any { return m.out }

func TestTerminatedOutputsPropagate(t *testing.T) {
	// Path of 6 nodes; node 0 is active with delay 3; outputs must ripple.
	tr, err := graph.BuildPath(6)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]any, 6)
	inputs[0] = "A"
	res, err := NewEngine(WithInputs(inputs)).Run(tr, copyNeighborAlg{activeDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(string) != "X" {
			t.Fatalf("node %d output %q, want X", v, out)
		}
	}
	// Node 0 terminates at round 3; node v at round 3 + v (one hop per
	// round).
	for v := 0; v < 6; v++ {
		if res.Rounds[v] != 3+v {
			t.Fatalf("node %d terminated at %d, want %d", v, res.Rounds[v], 3+v)
		}
	}
	wantAvg := float64(3+4+5+6+7+8) / 6
	if got := res.NodeAveraged(); got != wantAvg {
		t.Fatalf("node-averaged = %v, want %v", got, wantAvg)
	}
}

// immediateAlg terminates in round 0 with a constant output.
type immediateAlg struct{}

func (immediateAlg) Name() string { return "immediate" }
func (immediateAlg) NewMachine(info NodeInfo) Machine {
	return &immediateMachine{}
}

type immediateMachine struct{}

func (m *immediateMachine) Step(round int, recv []any) ([]any, bool) { return nil, true }
func (m *immediateMachine) Output() any                              { return "ok" }

func TestImmediateTerminationHasZeroCost(t *testing.T) {
	tr, err := graph.BuildStar(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine().Run(tr, immediateAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeAveraged() != 0 {
		t.Fatalf("node-averaged = %v, want 0", res.NodeAveraged())
	}
	if res.TotalRounds != 1 {
		t.Fatalf("total rounds = %d, want 1", res.TotalRounds)
	}
}

// stubbornAlg never terminates; Run must hit the round limit.
type stubbornAlg struct{}

func (stubbornAlg) Name() string                     { return "stubborn" }
func (stubbornAlg) NewMachine(info NodeInfo) Machine { return stubbornMachine{} }

type stubbornMachine struct{}

func (stubbornMachine) Step(round int, recv []any) ([]any, bool) { return nil, false }
func (stubbornMachine) Output() any                              { return nil }

func TestRoundLimit(t *testing.T) {
	tr, err := graph.BuildPath(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithMaxRounds(10)).Run(tr, stubbornAlg{}); err == nil {
		t.Fatal("want round-limit error")
	}
}

func TestDefaultIDsDistinct(t *testing.T) {
	ids := DefaultIDs(10000, 3)
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if id == 0 {
			t.Fatal("zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestDefaultIDsDeterministic(t *testing.T) {
	a := DefaultIDs(100, 9)
	b := DefaultIDs(100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DefaultIDs not deterministic")
		}
	}
	c := DefaultIDs(100, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical ID streams")
	}
}

func TestSequentialIDs(t *testing.T) {
	ids := SequentialIDs(5)
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("ids[%d] = %d", i, id)
		}
	}
}

func TestRunRejectsWrongIDCount(t *testing.T) {
	tr, err := graph.BuildPath(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithIDs([]uint64{1})).Run(tr, immediateAlg{}); err == nil {
		t.Fatal("want ID-count error")
	}
}

func TestMessagesCounted(t *testing.T) {
	tr, err := graph.BuildPath(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine().Run(tr, maxIDAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("expected nonzero message count")
	}
}

func mustPath(t *testing.T, n int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildPath(n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustStar(t *testing.T, n int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildStar(n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustCaterpillar(t *testing.T, a, b int) *graph.Tree {
	t.Helper()
	tr, err := graph.BuildCaterpillar(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
