package sim

import (
	"context"
	"fmt"
	"runtime"
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
// that have not terminated yet. A round steps only frontier nodes, and the
// frozen outputs of terminated nodes reach their live neighbors by pull
// (each active node fills its empty inbox slots before stepping) instead of
// a push sweep over the terminated set, so per-round cost is proportional to
// the live-node count — Θ(Σ_v T_v) machine steps over a whole run instead of
// Θ(n · TotalRounds).
//
// All backends also share one pull kernel, one step kernel, and one round
// loop. A run is cut into parts — contiguous node ranges, each with its own
// machines, frontier, and message slots: an unsharded run is one part over
// [0, n), and WithShards(k) makes k parts that exchange only cross-part
// messages at the round barrier (see shard.go). Each round is split into
// units: contiguous chunks of the single part's frontier under
// WithParallelism(p), or one unit per live part under WithShards(k). The
// calling goroutine runs unit 0 of every phase itself; units 1.. run on
// goroutines that live for the whole run, with a barrier after the pull
// phase and after the step phase. The barrier is an atomic handoff: an
// atomic phase counter releases the workers and an atomic pending count
// reports them done, and a waiting side polls for a few tens of µs, when
// the run has no more units than GOMAXPROCS, before it parks (see handoff).
// The LOCAL model's synchronous-round barrier makes this
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
// with its own machines and message buffers, run as independent per-round
// executors that exchange only cross-shard boundary messages through an
// in-memory bus between rounds (see shard.go). 0 and 1 select the unsharded
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
	if k > 1 {
		if e.layout == LayoutSubtree {
			exec, ids, inputs, cuts = r.relabel(t, ids, inputs, k)
		}
		r.owner = (&graph.Layout{Cuts: cuts}).Owners()
	}
	r.off, r.nbrs, r.rev = exec.Offsets(), exec.AdjacencyRaw(), reverseSlots(exec)
	r.dst = r.rev
	r.machines = make([]Machine, n)
	r.done = make([]bool, n)
	r.frozen = make([]any, n)
	r.res = &Result{Rounds: make([]int, n), Outputs: make([]any, n)}
	active := make([]int32, n)
	for v := range active {
		var input any
		if inputs != nil {
			input = inputs[v]
		}
		active[v] = int32(v)
		r.machines[v] = alg.NewMachine(NodeInfo{ID: ids[v], Degree: exec.Degree(v), N: n, Input: input})
	}
	r.parts = make([]part, k)
	for i := range r.parts {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			return nil, fmt.Errorf("sim: internal: empty shard %d in cuts %v (n=%d, k=%d)", i, cuts, n, k)
		}
		r.parts[i] = part{lo: lo, hi: hi, active: active[lo:hi:hi], stats: ShardStats{Shard: i, Nodes: int(hi - lo)}}
	}
	slots := len(r.rev)
	if k > 1 {
		slots += r.stage()
	}
	r.inbox = make([]any, slots)
	r.next = make([]any, slots)
	return r.execute()
}

// run is the mutable state of one execution, kept in struct-of-arrays form:
// per-node facts (machines, done, frozen) are flat arrays indexed by node,
// and all message state lives in two flat arrays indexed by directed-edge
// slot — port p of node v is slot off[v]+p, so the receive window of v is
// the contiguous range inbox[off[v]:off[v+1]] and a round is a linear sweep
// over contiguous memory. Because the tree is in CSR form, a part's node
// range [lo, hi) owns the slot range [off[lo], off[hi)): only that part's
// kernels touch those entries, and only the bus writes them for another
// part.
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
	// dst[e] is the slot a send on edge slot e is written to: rev[e], or,
	// for an edge between two parts, the sender's staging slot (see stage).
	dst   []int32
	owner []int32 // owner[v] = part of node v; nil when there is one part
	orig  []int32 // execution index -> construction index; nil = identity

	machines []Machine
	done     []bool
	// frozen[v] caches the boxed Terminated{Output} interface value created
	// once when v terminates, so every later pull of it is allocation-free.
	frozen []any
	inbox  []any // flat receive slots (len 2*M), then the staging slots
	next   []any // the same layout, written this round and swapped in next
	parts  []part
	live   int // nodes not yet terminated, over all parts
	res    *Result

	// units holds this round's units. The coordinator runs unit 0 and
	// worker w runs unit w ≥ 1; the coordinator writes units and round
	// before it releases a phase and reads the units' counters once the
	// phase's pending count is zero.
	units []unit
	round int
	hand  handoff
}

// part is one contiguous node range [lo, hi) of the run, with its own
// frontier.
type part struct {
	lo, hi int32
	// active is the part's frontier: its undecided nodes, ascending,
	// compacted in place as they terminate.
	active []int32
	nDone  int // terminated so far; with remoteFrozen it gates the pull phase

	// Multi-part runs only. cross lists the part's edge slots that lead to
	// another part's node: the traffic the bus carries. remoteFrozen[e-off[lo]]
	// caches the frozen output of the terminated remote neighbor behind
	// receive slot e, delivered once by the bus; the pull phase serves it in
	// every later round at zero bus cost. It is allocated on the first fill,
	// so runs whose boundary nodes never terminate early pay nothing for it.
	cross        []int32
	remoteFrozen []any

	stats ShardStats
}

// unit is one round's share of work: the frontier entries p.active[lo:hi).
// The step kernel compacts the survivors to the front of that range and
// reports its counters here.
type unit struct {
	p      *part
	lo, hi int
	kept   int
	steps  int64
	msgs   int64
	err    error
}

// origNode maps an execution index back to its construction index.
func (r *run) origNode(v int) int {
	if r.orig == nil {
		return v
	}
	return int(r.orig[v])
}

// execute drives the round loop: split the frontiers into units, pull and
// step them behind a barrier each, merge, exchange boundary messages, and
// swap the message buffers, until every node has terminated. The worker
// goroutines live for the whole run and have exited when execute returns.
func (r *run) execute() (*Result, error) {
	g := max(len(r.parts), r.workers)
	r.units = make([]unit, 0, g)
	if g > 1 {
		h := &r.hand
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
		defer h.stop()
	}
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
		// The pull phase reads done/frozen state that the step phase writes,
		// so the two must not overlap.
		if r.split() {
			r.phase(true)
		}
		r.phase(false)
		if err := r.merge(); err != nil {
			return nil, err
		}
		if r.owner != nil {
			r.exchange()
		}
		r.inbox, r.next = r.next, r.inbox
	}
}

// split cuts this round's frontiers into units: every part with live nodes
// contributes contiguous chunks of at most ceil(len(active)/workers)
// entries, so a multi-part run (workers = 1) has one unit per live part.
// split reports whether any part has a frozen output to pull.
func (r *run) split() (pull bool) {
	r.units = r.units[:0]
	for i := range r.parts {
		p := &r.parts[i]
		n := len(p.active)
		if n == 0 {
			continue
		}
		p.stats.ActiveRounds++
		pull = pull || p.nDone > 0 || p.remoteFrozen != nil
		chunk := (n + r.workers - 1) / r.workers
		for lo := 0; lo < n; lo += chunk {
			r.units = append(r.units, unit{p: p, lo: lo, hi: min(lo+chunk, n)})
		}
	}
	return pull
}

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
	// release[w] is the latest phase released to worker w, seq<<1 | pull,
	// or stopWord. Worker w is released only for phases with a unit w.
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

// phase runs the pull or the step kernel on every unit and returns once all
// are done. The coordinator runs unit 0 itself; when there are more units
// it first releases them to their workers and afterwards waits for them.
func (r *run) phase(pull bool) {
	h, n := &r.hand, len(r.units)
	if n > 1 {
		h.pending.Store(int32(n - 1))
		h.seq++
		word := h.seq << 1
		if pull {
			word |= 1
		}
		for w := 1; w < n; w++ {
			h.release[w].Store(word)
			notify(h.wake[w])
		}
	}
	r.kernel(&r.units[0], pull)
	if n > 1 {
		h.wait(h.wake[0], func() bool { return h.pending.Load() == 0 })
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
		r.kernel(&r.units[w], word&1 != 0)
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

// stop releases stopWord to every worker and returns once all have exited.
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

func (r *run) kernel(u *unit, pull bool) {
	if pull {
		r.pull(u)
	} else {
		r.step(u)
	}
}

// merge folds the units' counters into the result and the parts, lowest
// unit first, so the reported error is the one the sequential backend would
// hit first. Each unit left its survivors at the front of its chunk, so
// rebuilding a part's frontier is at most one forward copy per chunk and the
// frontier stays in ascending node order.
func (r *run) merge() error {
	write := 0
	for i := range r.units {
		u := &r.units[i]
		if u.err != nil {
			return u.err
		}
		p := u.p
		if u.lo == 0 {
			write = 0
		}
		if write != u.lo {
			copy(p.active[write:], p.active[u.lo:u.lo+u.kept])
		}
		write += u.kept
		fins := u.hi - u.lo - u.kept
		p.nDone += fins
		r.live -= fins
		r.res.Steps += u.steps
		r.res.Messages += u.msgs
		p.stats.Steps += u.steps
		if u.hi == len(p.active) {
			p.active = p.active[:write]
		}
	}
	return nil
}

// pull fills the empty inbox slots of the unit's frontier nodes from the
// frozen outputs of their terminated neighbors: local ones from the run's
// state, remote ones from the part's remoteFrozen cache. A non-nil slot is
// a real message (possibly sent in the neighbor's terminating round) and
// takes precedence. The phase reads only state from completed rounds and
// writes only the receive windows of the unit's own nodes, so concurrent
// pulls are race-free.
func (r *run) pull(u *unit) {
	p := u.p
	if p.nDone == 0 && p.remoteFrozen == nil {
		return
	}
	off, nbrs, inbox, done, frozen := r.off, r.nbrs, r.inbox, r.done, r.frozen
	lo, hi, remote, base := p.lo, p.hi, p.remoteFrozen, off[p.lo]
	for _, v := range p.active[u.lo:u.hi] {
		for e := off[v]; e < off[v+1]; e++ {
			if inbox[e] != nil {
				continue
			}
			if w := nbrs[e]; w >= lo && w < hi {
				if done[w] {
					inbox[e] = frozen[w]
				}
			} else if remote != nil {
				inbox[e] = remote[e-base]
			}
		}
	}
}

// step runs one round for the unit's frontier nodes, compacting survivors
// to the front of the unit's range. Each node's receive window is consumed
// and cleared in place, so the swapped buffers need no clearing pass and
// steady-state rounds allocate nothing. A send is written to next[dst[e]]:
// the receiver's slot, or, on an edge to another part, the sender's staging
// slot, which the bus ships at the barrier. The kernel has no multi-part
// branch; a branch per message measurably slowed the sequential backend.
// Units hold disjoint nodes, so every next[dst[e]] write has a single
// writer (the owner of edge slot e).
func (r *run) step(u *unit) {
	p, round := u.p, r.round
	// Locals, not fields: the interface call to Step would make the
	// compiler reload every field on each iteration.
	off, dst, machines, inbox, next := r.off, r.dst, r.machines, r.inbox, r.next
	active := p.active
	var steps, msgs int64
	from, to := u.lo, u.hi
	keep := from
	for i := from; i < to; i++ {
		v := int(active[i])
		base, end := off[v], off[v+1]
		recv := inbox[base:end:end]
		send, fin := machines[v].Step(round, recv)
		steps++
		deg := int(end - base)
		for q := deg; q < len(send); q++ {
			if send[q] != nil {
				u.err = fmt.Errorf("%w: algorithm %q node %d port %d degree %d",
					ErrBadPort, r.alg.Name(), r.origNode(v), q, deg)
				return
			}
		}
		for q := 0; q < len(send) && q < deg; q++ {
			if send[q] == nil {
				continue
			}
			next[dst[int(base)+q]] = send[q]
			msgs++
		}
		// Clear only after the sends are copied out: a machine may return its
		// recv slice as send. An indexed loop, because a range clear compiles
		// to a runtime memclrHasPointers call, which costs more than the
		// clear itself on a window of a few slots.
		for i := 0; i < len(recv); i++ {
			recv[i] = nil
		}
		if !fin {
			active[keep] = int32(v)
			keep++
			continue
		}
		r.done[v] = true
		orig := r.origNode(v)
		r.res.Rounds[orig] = round
		out := machines[v].Output()
		if out == nil {
			u.err = fmt.Errorf("%w: algorithm %q node %d", ErrNilOutput, r.alg.Name(), orig)
			return
		}
		r.res.Outputs[orig] = out
		// From the next round on, live neighbors observe the frozen output by
		// pulling it; a real message sent in the terminating round stays in
		// its slot and takes precedence.
		r.frozen[v] = Terminated{Output: out}
	}
	u.kept, u.steps, u.msgs = keep-from, steps, msgs
}
