package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Engine executes LOCAL algorithms. It is configured once via functional
// options and can then run any number of (tree, algorithm) pairs; every run
// with the same options, IDs, and inputs is deterministic, independent of the
// parallelism level.
//
// All backends schedule over the active frontier: the compact list of nodes
// that step this round. A node leaves it when it terminates or, if its
// machine is a Sleeper, while its steps are idle; the round barrier files a
// timed sleeper in a wake calendar and wakes a sleeper waiting for a message
// when one is sent to it. Message slots are owned by their senders: a step
// writes every one of its ports, nil included, and the barrier writes the
// standing sends of a new sleeper and the frozen output of a terminated node
// into both buffers, so no receiver ever clears or fills its inbox. Per-round
// cost is therefore proportional to the steps that do something, while
// Result.Steps still counts Σ_v (T_v+1).
//
// All backends also share one step kernel and one round loop. A run is cut
// into parts — contiguous node ranges, each with its own machines, frontier,
// and receive slots: an unsharded run is one part over [0, n), and
// WithShards(k) makes k parts, whose cross-part sends go straight into the
// receiver's slot (see shard.go). Each round is split into units: contiguous
// chunks of the single part's frontier under WithParallelism(p), or one unit
// per part with a non-empty frontier under WithShards(k). The calling
// goroutine runs unit 0 itself; units 1.. run on goroutines that live from
// the first round that releases them to the end of the run, with a barrier
// after the step phase. A round with fewer than inlineFrontier awake nodes
// is not released: the calling goroutine runs all of its units. The barrier
// is an atomic handoff: an atomic phase counter releases the workers and an
// atomic pending count reports them done, and a waiting side polls for a
// few tens of µs, when the run has no more units than GOMAXPROCS, before it
// parks (see handoff). The LOCAL model's synchronous-round barrier makes this
// semantics-preserving: within a round, node v only reads its own inbox
// (written during the previous round) and only writes the slots
// next[u][port-back-to-v], which no other node writes. Rounds, outputs, and
// message counts are therefore bit-identical across every parallelism
// level, shard count, and shard layout.
type Engine struct {
	ids         []uint64
	inputs      []any
	maxRounds   int
	ctx         context.Context
	parallelism int
	shards      int
	layout      ShardLayout
}

// Option configures an Engine.
type Option func(*Engine)

// WithIDs assigns the identifier of each node. If unset, DefaultIDs(n, 1) is
// used.
func WithIDs(ids []uint64) Option { return func(e *Engine) { e.ids = ids } }

// WithInputs assigns each node's LCL input label (may be nil).
func WithInputs(inputs []any) Option { return func(e *Engine) { e.inputs = inputs } }

// WithMaxRounds aborts a run if some node has not terminated after this many
// executed rounds; 0 means 4*n + 64 (a generous bound for linear-time
// algorithms). An algorithm that needs exactly MaxRounds rounds succeeds;
// one that needs MaxRounds+1 fails with ErrRoundLimit.
func WithMaxRounds(r int) Option { return func(e *Engine) { e.maxRounds = r } }

// WithContext attaches a context checked at every round barrier; when it is
// canceled the run returns promptly with an error wrapping ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(e *Engine) {
		if ctx != nil {
			e.ctx = ctx
		}
	}
}

// WithParallelism sets the number of workers stepping nodes within a round.
// 0 (the zero value) and 1 select the sequential backend; n < 0 selects
// GOMAXPROCS workers. It applies to the unsharded backend only; under
// WithShards(k > 1) the shards themselves are the units of concurrency.
func WithParallelism(n int) Option { return func(e *Engine) { e.parallelism = n } }

// WithShards partitions the tree into k contiguous node-range shards, each
// with its own machines, frontier and receive slots, run as independent
// per-round executors; a send to a node of another shard is written straight
// into its receive slot (see shard.go). 0 and 1 select the unsharded
// backends; k < 0 selects GOMAXPROCS shards; k > n is clamped to n (one
// node per shard). The clamped count always yields exactly min(k, n)
// non-empty shards — the split is the balanced graph.RangeCuts partition,
// never a shorter or empty-shard one — pinned by TestShardCountResolution.
// Rounds, outputs, and message counts are bit-identical to the sequential
// backend at every shard count; sharded runs additionally report per-shard
// statistics in Result.Shards.
func WithShards(k int) Option { return func(e *Engine) { e.shards = k } }

// ShardLayout selects how the sharded backend maps nodes to shards.
type ShardLayout string

const (
	// LayoutRange is the default: shards own balanced contiguous index
	// ranges of the construction numbering (graph.RangeCuts).
	LayoutRange ShardLayout = "range"
	// LayoutSubtree relabels nodes by a fat preorder before cutting
	// (graph.Partition): every subtree occupies a contiguous interval, and
	// cut points slide within a balance window to minimize boundary edges.
	// Results are bit-identical to every other layout and backend; only
	// Result.Shards (boundary edges, messages crossed) changes.
	LayoutSubtree ShardLayout = "subtree"
)

// WithShardLayout selects the sharded backend's partitioning layout; the
// empty string means LayoutRange. The layout is execution mechanics in the
// same sense as the shard count: the simulation is executed over relabeled
// indices and every observable result is mapped back through the inverse
// relabeling, so Rounds, Outputs, TotalRounds, Messages, and Steps are
// bit-identical across layouts. Only the per-shard statistics — boundary
// edges and the traffic crossing them, the thing the subtree layout exists
// to reduce — differ. An unknown layout fails Run loudly.
func WithShardLayout(l ShardLayout) Option { return func(e *Engine) { e.layout = l } }

// NewEngine builds an engine from options. The zero configuration is a
// sequential run with default IDs, no inputs, and the default round limit.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{ctx: context.Background(), parallelism: 1}
	for _, o := range opts {
		if o != nil {
			o(e)
		}
	}
	return e
}

// Run executes alg on t under the engine's configuration.
func (e *Engine) Run(t *graph.Tree, alg Algorithm) (*Result, error) {
	r, err := e.newRun(t, alg)
	if err != nil {
		return nil, err
	}
	return r.execute()
}

// newRun checks the configuration against t and sets up a run of alg on
// it: the execution tree and its slots, the machines, and the parts.
func (e *Engine) newRun(t *graph.Tree, alg Algorithm) (*run, error) {
	n := t.N()
	if n == 0 {
		return nil, graph.ErrEmpty
	}
	ids := e.ids
	if ids == nil {
		ids = DefaultIDs(n, 1)
	}
	if len(ids) != n {
		return nil, fmt.Errorf("sim: %d IDs for %d nodes", len(ids), n)
	}
	if e.inputs != nil && len(e.inputs) != n {
		return nil, fmt.Errorf("sim: %d inputs for %d nodes", len(e.inputs), n)
	}
	maxRounds := e.maxRounds
	if maxRounds == 0 {
		maxRounds = 4*n + 64
	}
	switch e.layout {
	case "", LayoutRange, LayoutSubtree:
	default:
		return nil, fmt.Errorf("sim: unknown shard layout %q", e.layout)
	}
	k := e.shards
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	k = max(1, min(k, n))
	workers := 1
	if k == 1 { // WithParallelism applies to the unsharded backend only
		workers = e.parallelism
		if workers < 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(1, min(workers, n)) // the zero value is the sequential backend
	}

	r := &run{alg: alg, ctx: e.ctx, maxRounds: maxRounds, workers: workers, live: n}
	exec, inputs, cuts := t, e.inputs, graph.RangeCuts(n, k)
	if k > 1 && e.layout == LayoutSubtree {
		exec, ids, inputs, cuts = r.relabel(t, ids, inputs, k)
	}
	r.off, r.nbrs, r.rev = exec.Offsets(), exec.AdjacencyRaw(), reverseSlots(exec)
	r.machines = make([]Machine, n)
	info := func(v int) NodeInfo {
		var input any
		if inputs != nil {
			input = inputs[v]
		}
		return NodeInfo{ID: ids[v], Degree: int(r.off[v+1] - r.off[v]), N: n, Input: input}
	}
	if s, ok := alg.(SlabBuilder); ok {
		s.NewMachines(info, r.machines)
	} else {
		for v := range r.machines {
			r.machines[v] = alg.NewMachine(info(v))
		}
	}
	r.state = make([]uint8, n)
	r.idle = make([]int32, n)
	r.fins = make([]int32, 0, n)
	r.woken = make([]int32, 0, n)
	r.res = &Result{Rounds: make([]int, n), Outputs: make([]any, n)}
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	r.parts = make([]part, k)
	for i := range r.parts {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			return nil, fmt.Errorf("sim: internal: empty shard %d in cuts %v (n=%d, k=%d)", i, cuts, n, k)
		}
		r.parts[i] = part{lo: lo, hi: hi, active: active[lo:hi:hi], live: int(hi - lo), stats: ShardStats{Shard: i, Nodes: int(hi - lo)}}
	}
	if k > 1 {
		r.countBoundary()
	}
	r.inbox = make([]any, len(r.rev))
	r.next = make([]any, len(r.rev))
	return r, nil
}

// run is the mutable state of one execution, kept in struct-of-arrays form:
// per-node facts (machines, state, idle) are flat arrays indexed by node,
// and all message state lives in two flat arrays indexed by directed-edge
// slot — port p of node v is slot off[v]+p, so the receive window of v is
// the contiguous range inbox[off[v]:off[v+1]] and a round is a linear sweep
// over contiguous memory. Because the tree is in CSR form, a part's node
// range [lo, hi) owns the receive window [off[lo], off[hi)): only that
// part's kernels read it, and each of its slots is written by the one
// neighbor behind the reverse edge, in whichever part that lies, or by the
// barrier acting for it.
//
// Under the subtree layout every index here is an *execution* index: the run
// operates on a relabeled tree in which each part's nodes are contiguous,
// and orig maps execution indices back to construction indices for
// everything the caller observes (Rounds, Outputs, error messages).
type run struct {
	alg       Algorithm
	ctx       context.Context
	maxRounds int
	workers   int // units per part; 1 whenever there are several parts

	off  []int32 // CSR offsets (shared with the tree; read-only)
	nbrs []int32 // CSR neighbors: nbrs[off[v]+p] is the p-th neighbor of v
	rev  []int32 // rev[e] = flat slot of the reverse directed edge
	orig []int32 // execution index -> construction index; nil = identity

	machines []Machine
	// state[v] is awake, napping, listening or finished. Only the barrier
	// writes it, so the kernels may read any node's state during a step.
	state []uint8
	// idle[v] is written by the kernel when v leaves the frontier: 0 when v
	// terminated, the rounds it naps, or UntilMessage. While v naps, the
	// barrier reuses it as the link to the next node of v's calendar bucket.
	idle  []int32
	inbox []any // flat receive slots (len 2*M)
	next  []any // the same layout, written this round and swapped in next
	parts []part
	live  int // nodes not yet terminated, over all parts
	res   *Result

	// Sleep and termination bookkeeping, all written by the barrier only.
	// heads is the wake calendar, a ring of intrusive lists through idle:
	// heads[t & (len-1)] lists the nodes napping until round t, for t in
	// (round, round+len(heads)]. woke holds the units' message wakes, each
	// unit in the slot range of its own nodes; woken collects the nodes
	// that step again next round. fins is the termination order, fins[finsFrom:]
	// the nodes that terminated last round.
	heads     []int32
	woke      []int32
	woken     []int32
	fins      []int32
	finsFrom  int
	listening int // nodes sleeping until a real message

	// units holds this round's units and awake the nodes on their
	// frontiers. The coordinator runs unit 0, or every unit of a round
	// stepped inline, and worker w runs unit w ≥ 1; the coordinator writes
	// units and round before it releases a phase and reads the units'
	// counters once the phase's pending count is zero.
	units []unit
	awake int
	round int
	hand  handoff
}

// Node states.
const (
	awake     uint8 = iota // on its part's frontier
	napping                // filed in the wake calendar
	listening              // sleeping until a real message
	finished               // terminated
)

// maxNap caps the rounds a node is filed away for, which bounds the wake
// calendar at maxNap+1 buckets. A longer sleep wakes for one idle step and
// goes back to sleep, which the Sleeper contract allows.
const maxNap = 1<<12 - 1

// part is one contiguous node range [lo, hi) of the run, with its own
// frontier.
type part struct {
	lo, hi int32
	// active is the part's frontier: its awake nodes, ascending, compacted
	// in place as they leave and merged with the nodes that wake.
	active []int32
	live   int // nodes not yet terminated, sleepers included

	stats ShardStats
}

// unit is one round's share of work: the frontier entries p.active[lo:hi).
// The step kernel moves the nodes that stay awake to the front of that
// range, in order, leaves the ones that fell asleep or terminated behind
// them, and reports its counters here: fins of them terminated.
// woke[woke0:woke1] lists the listening nodes its sends woke.
type unit struct {
	p            *part
	lo, hi       int
	kept, fins   int
	steps        int64
	msgs         int64
	woke0, woke1 int
	err          error
}

// origNode maps an execution index back to its construction index.
func (r *run) origNode(v int) int {
	if r.orig == nil {
		return v
	}
	return int(r.orig[v])
}

// execute drives the round loop: split the frontiers into units, step them
// behind a barrier, settle the round (barrier), and swap the message
// buffers, until every node has terminated. The worker goroutines, if the
// run started any, have exited when execute returns.
func (r *run) execute() (*Result, error) {
	r.units = make([]unit, 0, max(len(r.parts), r.workers))
	defer r.hand.stop()
	for round := 0; ; round++ {
		if r.live == 0 {
			r.res.TotalRounds = round
			if len(r.parts) > 1 {
				r.res.Shards = make([]ShardStats, len(r.parts))
				for i := range r.parts {
					r.res.Shards[i] = r.parts[i].stats
				}
			}
			return r.res, nil
		}
		if round >= r.maxRounds {
			return nil, fmt.Errorf("%w: algorithm %q, n=%d, limit=%d",
				ErrRoundLimit, r.alg.Name(), len(r.res.Rounds), r.maxRounds)
		}
		if err := r.ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: algorithm %q canceled at round %d: %w",
				r.alg.Name(), round, err)
		}
		r.round = round
		if r.split() {
			r.phase()
		}
		if err := r.barrier(); err != nil {
			return nil, err
		}
		r.inbox, r.next = r.next, r.inbox
	}
}

// split cuts this round's frontiers into units: every part with awake nodes
// contributes contiguous chunks of at most ceil(len(active)/workers)
// entries, so a multi-part run (workers = 1) has one unit per part with a
// non-empty frontier. A part counts the round as active while it has
// undecided nodes, asleep or not. split reports whether there is a unit.
func (r *run) split() bool {
	r.units = r.units[:0]
	r.awake = 0
	for i := range r.parts {
		p := &r.parts[i]
		if p.live > 0 {
			p.stats.ActiveRounds++
		}
		n := len(p.active)
		if n == 0 {
			continue
		}
		r.awake += n
		chunk := (n + r.workers - 1) / r.workers
		for lo := 0; lo < n; lo += chunk {
			r.units = append(r.units, unit{p: p, lo: lo, hi: min(lo+chunk, n)})
		}
	}
	return len(r.units) > 0
}

// inlineFrontier is the frontier size below which the coordinator steps
// every unit of a round itself instead of handing units to the workers.
// The units are cut as usual, so the kernel, compact and wake see the same
// ranges either way. Measured on a 2-CPU Xeon (go1.24.0, par2, median of
// 15): a Linial run on a Galton-Watson tree, whose reduction rounds step
// every node, took 22% longer handed off than inline at 256 nodes, broke
// even at 512 and gained 8% at 1024; a 16-node round of trivial steps cost
// 0.9 µs more handed off. path2048-2color, whose rounds step 2 to 4 nodes,
// took 3 to 4 times as long on par2 and shard2 as on seq when every round
// was handed off, and as long as seq with any threshold from 64 to 4096.
const inlineFrontier = 256

// spinWait bounds how long a waiting side of the handoff polls before it
// parks. A dense round of a small tree steps in a few tens of µs, so a
// worker that polls this long usually sees the next phase without a trip
// through the scheduler, and a coordinator sees the phase end.
const spinWait = 50 * time.Microsecond

// handoff is the barrier between the coordinator and the worker goroutines
// of a run with several units. The atomics decide: release[w] hands worker
// w its next phase and pending counts the workers still in the current one.
// A waiting side polls its atomic for at most spinWait, yielding between
// checks, and then parks on its one-slot wake channel. A wake token is only
// a hint to look again: the waker sends one without blocking after its
// atomic write, so a waiter that parks after that write finds the token,
// and a stale token costs one extra check.
type handoff struct {
	// release[w] is the latest phase released to worker w, or stopWord.
	// Worker w is released only for phases with a unit w.
	release []atomic.Uint64
	pending atomic.Int32
	seq     uint64 // phases released so far; written by the coordinator only
	// spin is set when the run has at most GOMAXPROCS units: with more, a
	// poller would hold a processor that a unit is waiting for.
	spin   bool
	wake   []chan struct{} // wake[0] wakes the coordinator, wake[w] worker w
	exited sync.WaitGroup
}

// stopWord released to a worker tells it to exit; no phase word reaches it.
const stopWord = ^uint64(0)

// phase runs the step kernel on every unit and returns once all are done.
// A lone unit, or a round with fewer than inlineFrontier awake nodes, is
// stepped by the coordinator, every unit in order. Otherwise the
// coordinator releases units 1.. to their workers, starting the workers at
// the first such phase, runs unit 0 itself and waits for the others.
func (r *run) phase() {
	h, n := &r.hand, len(r.units)
	if n == 1 || r.awake < inlineFrontier {
		for i := range r.units {
			r.step(&r.units[i])
		}
		return
	}
	if h.release == nil {
		r.start()
	}
	h.pending.Store(int32(n - 1))
	h.seq++
	for w := 1; w < n; w++ {
		h.release[w].Store(h.seq)
		notify(h.wake[w])
	}
	r.step(&r.units[0])
	h.wait(h.wake[0], func() bool { return h.pending.Load() == 0 })
}

// start launches a worker for every unit a round can have beyond the
// first.
func (r *run) start() {
	h, g := &r.hand, cap(r.units)
	h.spin = g <= runtime.GOMAXPROCS(0)
	h.release = make([]atomic.Uint64, g)
	h.wake = make([]chan struct{}, g)
	for w := range h.wake {
		h.wake[w] = make(chan struct{}, 1)
	}
	h.exited.Add(g - 1)
	for w := 1; w < g; w++ {
		go r.worker(w)
	}
}

// worker runs unit w of every phase released to it, until stopped.
func (r *run) worker(w int) {
	h := &r.hand
	defer h.exited.Done()
	var word uint64
	for {
		seen := word
		h.wait(h.wake[w], func() bool {
			word = h.release[w].Load()
			return word != seen
		})
		if word == stopWord {
			return
		}
		r.step(&r.units[w])
		if h.pending.Add(-1) == 0 {
			notify(h.wake[0])
		}
	}
}

// wait returns once done reports true: after polling it for up to spinWait
// when spin is set, it parks on wake and checks again after every token.
func (h *handoff) wait(wake <-chan struct{}, done func() bool) {
	if done() {
		return
	}
	if h.spin {
		for start := time.Now(); time.Since(start) < spinWait; {
			runtime.Gosched()
			if done() {
				return
			}
		}
	}
	for !done() {
		<-wake
	}
}

// stop releases stopWord to every worker and returns once all have exited;
// without workers it does nothing.
func (h *handoff) stop() {
	for w := 1; w < len(h.wake); w++ {
		h.release[w].Store(stopWord)
		notify(h.wake[w])
	}
	h.exited.Wait()
}

// notify leaves a wake token on c unless one is already waiting there.
func notify(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// step runs one round for the unit's frontier nodes. Each step writes every
// port of the node, nil included, to next[rev[e]], the receiver's slot,
// whichever part the receiver lies in; the kernel has no multi-part branch.
// Units hold disjoint nodes, so every next[rev[e]] write has a single writer
// (the owner of edge slot e). A real message to a listening node is
// recorded as a wake in the unit's own slot range of woke. A node that stays
// awake moves to the front of the unit's range; one that terminated or fell
// asleep stays behind, with idle[v] telling the barrier which.
func (r *run) step(u *unit) {
	p, round := u.p, r.round
	// Locals, not fields: the interface call to Step would make the
	// compiler reload every field on each iteration.
	off, nbrs, rev, machines, inbox, next := r.off, r.nbrs, r.rev, r.machines, r.inbox, r.next
	state, idle, woke := r.state, r.idle, r.woke
	listeners := r.listening > 0
	active := p.active
	var steps, msgs int64
	from, to := u.lo, u.hi
	keep, fins := from, 0
	w := int(off[active[from]])
	u.woke0 = w
	for i := from; i < to; i++ {
		v := active[i]
		base, end := off[v], off[v+1]
		send, fin := machines[v].Step(round, inbox[base:end:end])
		deg := int(end - base)
		for q := deg; q < len(send); q++ {
			if send[q] != nil {
				u.err = fmt.Errorf("%w: algorithm %q node %d port %d degree %d",
					ErrBadPort, r.alg.Name(), r.origNode(int(v)), q, deg)
				return
			}
		}
		send = send[:min(len(send), deg)]
		ports := rev[base:end:end]
		sent := 0
		for q, x := range send {
			next[ports[q]] = x
			if x == nil {
				continue
			}
			sent++
			if listeners {
				if rcv := nbrs[int(base)+q]; state[rcv] == listening && isReal(x) {
					woke[w] = rcv
					w++
				}
			}
		}
		for q := len(send); q < deg; q++ {
			next[ports[q]] = nil
		}
		msgs += int64(sent)
		if fin {
			orig := r.origNode(int(v))
			out := machines[v].Output()
			if out == nil {
				u.err = fmt.Errorf("%w: algorithm %q node %d", ErrNilOutput, r.alg.Name(), orig)
				return
			}
			r.res.Rounds[orig] = round
			r.res.Outputs[orig] = out
			steps += int64(round) + 1
			idle[v] = 0
			fins++
			continue
		}
		if s, ok := machines[v].(Sleeper); ok {
			k := s.Idle(round)
			if k > 0 {
				k = min(k, r.maxRounds-round-1, maxNap)
			}
			if k > 0 || k == UntilMessage && sent == 0 {
				idle[v] = int32(k)
				continue
			}
		}
		active[i], active[keep] = active[keep], v
		keep++
	}
	u.kept, u.fins, u.steps, u.msgs, u.woke1 = keep-from, fins, steps, msgs, w
}

// isReal reports whether a non-nil message is a real one, which wakes a
// listening node: anything but a frozen output.
func isReal(x any) bool {
	_, frozen := x.(Terminated)
	return !frozen
}

// barrier settles a round once every unit has stepped, on the coordinator.
// It folds the units' counters into the result and the parts, lowest unit
// first, so the reported error is the one the sequential backend would hit
// first; counts the messages that crossed parts (countCrossed); gives last
// round's terminations their second frozen write; retires the nodes that
// left the frontier (leave); compacts the frontiers; and returns the nodes
// due next round to them (wake). In the last round, when the terminations
// retire every node still undecided, it stops after the count: no step
// reads a slot again, so no frozen output is boxed or written.
func (r *run) barrier() error {
	fins := 0
	for i := range r.units {
		u := &r.units[i]
		if u.err != nil {
			return u.err
		}
		r.res.Steps += u.steps
		r.res.Messages += u.msgs
		u.p.stats.Steps += u.steps
		fins += u.fins
	}
	if len(r.parts) > 1 {
		r.countCrossed()
	}
	if fins == r.live {
		r.live = 0
		return nil
	}
	// A node that terminated last round wrote its final messages into the
	// buffer read this round; from now on every slot of both buffers
	// carries its frozen output, which the other buffer already holds.
	for _, v := range r.fins[r.finsFrom:] {
		if slots := r.rev[r.off[v]:r.off[v+1]]; len(slots) > 0 {
			f := r.next[slots[0]]
			for _, s := range slots {
				r.inbox[s] = f
			}
		}
	}
	r.finsFrom = len(r.fins)
	for i := range r.units {
		u := &r.units[i]
		for _, v := range u.p.active[u.lo+u.kept : u.hi] {
			r.leave(u.p, v)
		}
	}
	r.compact()
	r.wake()
	return nil
}

// leave retires node v of part p, which left the frontier this round; idle[v]
// says why. Its sends of this round are in next, in its neighbors' slots.
//   - Terminated: its frozen output fills every port where it sent nil this
//     round and every port of the other buffer, so its real final messages
//     are read exactly once. The next barrier overwrites them too.
//   - Napping for k rounds: its sends stand, so they are copied into the
//     other buffer and counted once per skipped round, and it is filed in
//     the calendar.
//   - Listening: it sent nothing, which the other buffer now says too. If
//     a real message is already waiting for it, it stays awake.
func (r *run) leave(p *part, v int32) {
	base, end := r.off[v], r.off[v+1]
	switch k := r.idle[v]; k {
	case 0:
		r.state[v] = finished
		r.live--
		p.live--
		r.fins = append(r.fins, v)
		if base == end {
			return
		}
		f := any(Terminated{Output: r.res.Outputs[r.origNode(int(v))]})
		for _, s := range r.rev[base:end] {
			if r.next[s] == nil {
				r.next[s] = f
			}
			r.inbox[s] = f
		}
	case UntilMessage:
		for _, x := range r.next[base:end] {
			if x != nil && isReal(x) {
				r.woken = append(r.woken, v)
				return
			}
		}
		if r.woke == nil {
			r.woke = make([]int32, len(r.rev))
		}
		r.state[v] = listening
		r.listening++
		for _, s := range r.rev[base:end] {
			r.inbox[s] = nil
		}
	default:
		r.state[v] = napping
		var sent, crossed int64
		for e := base; e < end; e++ {
			x := r.next[r.rev[e]]
			r.inbox[r.rev[e]] = x
			if x != nil {
				sent++
				if w := r.nbrs[e]; w < p.lo || w >= p.hi {
					crossed++
				}
			}
		}
		r.res.Messages += sent * int64(k)
		p.stats.MessagesCrossed += crossed * int64(k)
		r.file(v, r.round+int(k)+1)
	}
}

// compact rebuilds each frontier from its units' survivors. Each unit left
// them at the front of its chunk, in order, so rebuilding a part's frontier
// is at most one forward copy per chunk and it stays ascending.
func (r *run) compact() {
	write := 0
	for i := range r.units {
		u := &r.units[i]
		p := u.p
		if u.lo == 0 {
			write = 0
		}
		if write != u.lo {
			copy(p.active[write:], p.active[u.lo:u.lo+u.kept])
		}
		write += u.kept
		if u.hi == len(p.active) {
			p.active = p.active[:write]
		}
	}
}

// wake collects the nodes that step again next round — the listeners a
// real message reached and the nappers whose calendar bucket is due — and
// merges them into their parts' frontiers in ascending order. When an
// eighth of the nodes or more wake at once, as every Linial node does in
// its last round, it rebuilds the frontiers from the node states instead,
// which costs less than sorting them.
func (r *run) wake() {
	for i := range r.units {
		u := &r.units[i]
		if u.woke1 == u.woke0 {
			continue
		}
		for _, v := range r.woke[u.woke0:u.woke1] {
			if r.state[v] == listening {
				r.state[v] = awake
				r.listening--
				r.woken = append(r.woken, v)
			}
		}
	}
	if len(r.heads) > 0 {
		b := (r.round + 1) & (len(r.heads) - 1)
		for v := r.heads[b]; v >= 0; v = r.idle[v] {
			r.state[v] = awake
			r.woken = append(r.woken, v)
		}
		r.heads[b] = -1
	}
	if len(r.woken) == 0 {
		return
	}
	if 8*len(r.woken) >= len(r.state) {
		for i := range r.parts {
			p := &r.parts[i]
			p.active = p.active[:0]
			for v := p.lo; v < p.hi; v++ {
				if r.state[v] == awake {
					p.active = append(p.active, v)
				}
			}
		}
		r.woken = r.woken[:0]
		return
	}
	slices.Sort(r.woken)
	w := r.woken
	for i := range r.parts {
		p := &r.parts[i]
		j := 0
		for j < len(w) && w[j] < p.hi {
			j++
		}
		if j > 0 {
			p.active = mergeInto(p.active, w[:j])
			w = w[j:]
		}
	}
	r.woken = r.woken[:0]
}

// mergeInto merges the ascending nodes add into the ascending frontier
// active, which has the capacity for them, from the back, and returns the
// grown frontier.
func mergeInto(active, add []int32) []int32 {
	i, j := len(active)-1, len(add)-1
	out := active[:len(active)+len(add)]
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && active[i] > add[j] {
			out[k] = active[i]
			i--
		} else {
			out[k] = add[j]
			j--
		}
	}
	return out
}

// file puts napping node v in the calendar bucket of round at, growing the
// ring when at lies beyond it.
func (r *run) file(v int32, at int) {
	if at-r.round > len(r.heads) {
		r.regrow(at - r.round)
	}
	b := at & (len(r.heads) - 1)
	r.idle[v], r.heads[b] = r.heads[b], v
}

// regrow replaces the calendar ring with one of at least span buckets. Old
// bucket b holds the one pending round t in (round, round+len] with
// t ≡ b, so its nodes move to bucket t of the new ring.
func (r *run) regrow(span int) {
	size := 16
	for size < span {
		size <<= 1
	}
	heads := make([]int32, size)
	for b := range heads {
		heads[b] = -1
	}
	old := len(r.heads)
	for b, v := range r.heads {
		t := r.round + 1 + (b-r.round-1)&(old-1)
		for v >= 0 {
			next := r.idle[v]
			nb := t & (size - 1)
			r.idle[v], heads[nb] = heads[nb], v
			v = next
		}
	}
	r.heads = heads
}
