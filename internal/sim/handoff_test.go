package sim

// Tests of the round handoff between the coordinator, which runs unit 0 of
// every phase, and the worker goroutines, which run units 1..: the workers
// exit on every return path of Run, and results stay bit-identical when a
// waiting side runs past the spin bound and parks. A run with at most
// GOMAXPROCS units polls before it parks; a run with more parks at once. A
// round with fewer than inlineFrontier awake nodes is never handed off, so
// the trees here are large enough that most rounds are.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
)

// handoffModes returns the unit counts that exercise each wait of the
// handoff, keyed by mode. It raises GOMAXPROCS to 2 for the rest of the test
// when it is 1, so that the polling mode exists at every -cpu setting.
func handoffModes(t *testing.T) map[string]int {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
		procs = 2
	}
	return map[string]int{"spin": procs, "park": procs + 1}
}

// handoffBackends returns every backend that runs units on the handoff at
// the given unit count.
func handoffBackends(units int) map[string][]Option {
	return map[string][]Option{
		fmt.Sprintf("par%d", units):            {WithParallelism(units)},
		fmt.Sprintf("shards%d-range", units):   {WithShards(units), WithShardLayout(LayoutRange)},
		fmt.Sprintf("shards%d-subtree", units): {WithShards(units), WithShardLayout(LayoutSubtree)},
	}
}

// cancelAlg cancels its context in round at and otherwise runs forever.
type cancelAlg struct {
	at     int
	cancel context.CancelFunc
}

func (cancelAlg) Name() string { return "cancel" }
func (a cancelAlg) NewMachine(NodeInfo) Machine {
	return cancelMachine{a}
}

type cancelMachine struct{ cancelAlg }

func (m cancelMachine) Step(round int, _ []any) ([]any, bool) {
	if round == m.at {
		m.cancel()
	}
	return nil, false
}

func (cancelMachine) Output() any { return nil }

// runReleased runs alg on tr as e.Run does and also returns the number of
// phases the run released to its workers.
func runReleased(e *Engine, tr *graph.Tree, alg Algorithm) (*Result, uint64, error) {
	r, err := e.newRun(tr, alg)
	if err != nil {
		return nil, 0, err
	}
	res, err := r.execute()
	return res, r.hand.seq, err
}

// TestHandoffWorkersExitOnEveryReturn: whatever way Run returns — success,
// ErrBadPort, ErrNilOutput, ErrRoundLimit or a canceled context — the
// goroutine count falls back to its value before the run. Every node steps
// in every round, so every round is handed off.
func TestHandoffWorkersExitOnEveryReturn(t *testing.T) {
	modes := handoffModes(t)
	tr := mustPath(t, 2*inlineFrontier)
	returns := []struct {
		name string
		want error
		run  func(opts []Option) error
	}{
		{"success", nil, func(opts []Option) error {
			_, err := NewEngine(opts...).Run(tr, tickAlg{rounds: 20})
			return err
		}},
		{"bad-port", ErrBadPort, func(opts []Option) error {
			_, err := NewEngine(opts...).Run(tr, badPortAlg{at: 5})
			return err
		}},
		{"nil-output", ErrNilOutput, func(opts []Option) error {
			_, err := NewEngine(opts...).Run(tr, nilOutputAlg{})
			return err
		}},
		{"round-limit", ErrRoundLimit, func(opts []Option) error {
			_, err := NewEngine(append(opts, WithMaxRounds(30))...).Run(tr, forever{})
			return err
		}},
		{"canceled", context.Canceled, func(opts []Option) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := NewEngine(append(opts, WithContext(ctx))...).Run(tr, cancelAlg{at: 10, cancel: cancel})
			return err
		}},
	}
	for mode, units := range modes {
		for bname, opts := range handoffBackends(units) {
			for _, ret := range returns {
				before := runtime.NumGoroutine()
				if err := ret.run(opts); !errors.Is(err, ret.want) {
					t.Fatalf("%s/%s/%s: got %v, want %v", mode, bname, ret.name, err, ret.want)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if now := runtime.NumGoroutine(); now > before {
					t.Fatalf("%s/%s/%s: %d goroutines after Run, %d before", mode, bname, ret.name, now, before)
				}
			}
		}
	}
}

// sleepyAlg is probeAlg with naps: in every round, the nodes whose ID plus
// the round is divisible by 37 sleep three spin bounds before stepping. A
// sleeper in unit 0 keeps the coordinator busy while the workers wait for
// the next phase; a sleeper in another unit keeps the coordinator waiting
// for the phase to end. Either way the waiting side parks.
type sleepyAlg struct{ probeAlg }

func (a sleepyAlg) NewMachine(info NodeInfo) Machine {
	return &sleepyMachine{Machine: a.probeAlg.NewMachine(info), id: info.ID}
}

type sleepyMachine struct {
	Machine
	id uint64
}

func (m *sleepyMachine) Step(round int, recv []any) ([]any, bool) {
	if (m.id+uint64(round))%37 == 0 {
		time.Sleep(3 * spinWait)
	}
	return m.Machine.Step(round, recv)
}

// denseShape is a Galton-Watson tree of 2·inlineFrontier nodes with
// deadlines spread over 0..18: its first rounds are handed off and its last
// ones, with under half of the nodes awake, are stepped inline.
func denseShape(t *testing.T) (*graph.Tree, []any) {
	t.Helper()
	tr, err := graph.BuildGaltonWatson(2*inlineFrontier, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	deadlines := make([]any, tr.N())
	for v := range deadlines {
		deadlines[v] = (v*2654435761 + 13) % 19
	}
	return tr, deadlines
}

// TestHandoffParkedRunsMatchSequential: with sleepers past the spin bound,
// the parallel and sharded backends of both layouts, at a unit count that
// polls first and at one that parks at once, reproduce the sequential
// backend's Rounds, Outputs, TotalRounds, Messages and Steps, on the
// frontier shapes, whose rounds are all stepped inline, and on denseShape.
func TestHandoffParkedRunsMatchSequential(t *testing.T) {
	modes := handoffModes(t)
	shapes := frontierShapes(t)
	dense, deadlines := denseShape(t)
	shapes["dense"] = struct {
		tree      *graph.Tree
		deadlines []any
	}{dense, deadlines}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		shape := shapes[name]
		ids := DefaultIDs(shape.tree.N(), 17)
		base := []Option{WithIDs(ids), WithInputs(shape.deadlines)}
		want, err := NewEngine(base...).Run(shape.tree, sleepyAlg{})
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		for mode, units := range modes {
			for bname, opts := range handoffBackends(units) {
				got, err := NewEngine(append(base, opts...)...).Run(shape.tree, sleepyAlg{})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, mode, bname, err)
				}
				if !reflect.DeepEqual(coreResult(want), coreResult(got)) {
					t.Errorf("%s/%s/%s diverges from the sequential backend:\n got %+v\nwant %+v",
						name, mode, bname, coreResult(got), coreResult(want))
				}
			}
		}
	}
}

// TestHandoffTinyRoundsStayInline: a run whose frontier never reaches
// inlineFrontier nodes hands no phase to a worker on two workers or two
// shards of either layout, and starts no worker; denseShape, whose first
// rounds step every node, hands those rounds off and steps its last ones
// inline. Both reproduce the sequential backend.
func TestHandoffTinyRoundsStayInline(t *testing.T) {
	handoffModes(t)
	tiny := mustPath(t, inlineFrontier-1)
	tinyDeadlines := make([]any, tiny.N())
	for v := range tinyDeadlines {
		tinyDeadlines[v] = v % 23
	}
	dense, denseDeadlines := denseShape(t)
	for _, c := range []struct {
		name      string
		tree      *graph.Tree
		deadlines []any
		dense     bool
	}{
		{"tiny", tiny, tinyDeadlines, false},
		{"dense", dense, denseDeadlines, true},
	} {
		base := []Option{WithIDs(DefaultIDs(c.tree.N(), 5)), WithInputs(c.deadlines)}
		want, err := NewEngine(base...).Run(c.tree, probeAlg{})
		if err != nil {
			t.Fatalf("%s seq: %v", c.name, err)
		}
		for bname, opts := range handoffBackends(2) {
			before := runtime.NumGoroutine()
			got, released, err := runReleased(NewEngine(append(base, opts...)...), c.tree, probeAlg{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, bname, err)
			}
			if !reflect.DeepEqual(coreResult(want), coreResult(got)) {
				t.Errorf("%s/%s diverges from the sequential backend:\n got %+v\nwant %+v",
					c.name, bname, coreResult(got), coreResult(want))
			}
			t.Logf("%s/%s: %d of %d rounds handed off", c.name, bname, released, got.TotalRounds)
			switch {
			case !c.dense && released != 0:
				t.Errorf("%s/%s: %d rounds handed off, want none", c.name, bname, released)
			case !c.dense && runtime.NumGoroutine() > before:
				t.Errorf("%s/%s: %d goroutines after the run, %d before", c.name, bname, runtime.NumGoroutine(), before)
			case c.dense && (released == 0 || released >= uint64(got.TotalRounds)):
				t.Errorf("%s/%s: %d of %d rounds handed off, want some but not all", c.name, bname, released, got.TotalRounds)
			}
		}
	}
}
