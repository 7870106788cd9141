package sim

import (
	"testing"

	"repro/internal/graph"
)

func TestBallAlgorithmCountsMatchGraphBalls(t *testing.T) {
	shapes := []*graph.Tree{
		mustPath(t, 21),
		mustStar(t, 9),
		mustCaterpillar(t, 8, 2),
	}
	for si, tr := range shapes {
		for _, radius := range []int{0, 1, 2, 4} {
			res, err := NewEngine().Run(tr, BallAlgorithm{Radius: radius})
			if err != nil {
				t.Fatalf("shape %d radius %d: %v", si, radius, err)
			}
			for v := 0; v < tr.N(); v++ {
				want := len(tr.Ball(v, radius))
				got := res.Outputs[v].(int)
				if got != want {
					t.Fatalf("shape %d radius %d node %d: ball size %d, want %d",
						si, radius, v, got, want)
				}
				if res.Rounds[v] != radius {
					t.Fatalf("node %d terminated at %d, want %d", v, res.Rounds[v], radius)
				}
			}
		}
	}
}

func TestBallCollectorDistances(t *testing.T) {
	tr := mustPath(t, 9)
	res, err := NewEngine().Run(tr, ballDistAlg{radius: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Middle node must know exactly 7 nodes (itself + 3 each side) with
	// correct max distance 3.
	mid := 4
	got := res.Outputs[mid].(int)
	if got != 3 {
		t.Fatalf("max distance seen = %d, want 3", got)
	}
}

// ballDistAlg outputs the maximum distance among collected nodes.
type ballDistAlg struct{ radius int }

func (ballDistAlg) Name() string { return "ball-dist" }
func (a ballDistAlg) NewMachine(info NodeInfo) Machine {
	return &ballDistMachine{info: info, radius: a.radius, bc: NewBallCollector(info)}
}

type ballDistMachine struct {
	info   NodeInfo
	radius int
	bc     *BallCollector
}

func (m *ballDistMachine) Step(round int, recv []any) ([]any, bool) {
	for _, msg := range recv {
		if bm, ok := msg.(ballMsg); ok {
			m.bc.Absorb(bm)
		}
	}
	if round >= m.radius {
		return nil, true
	}
	send := make([]any, m.info.Degree)
	snap := m.bc.Snapshot()
	for i := range send {
		send[i] = snap
	}
	return send, false
}

func (m *ballDistMachine) Output() any {
	max := 0
	for _, bn := range m.bc.Known(m.radius) {
		if bn.Dist > max {
			max = bn.Dist
		}
	}
	return max
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
