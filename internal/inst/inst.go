// Package inst is the instance provider: a keyed, size-bounded,
// singleflight-guarded cache over the paper's instance constructions.
//
// The lower-bound instances behind the paper's sweeps (the Definition-18
// hierarchical graphs, balanced Δ-regular weight trees, and plain paths) are
// pure functions of their construction parameters, and graph.Tree is
// immutable, so a tree built once can be shared by every sweep point, every
// preset, and every concurrently running experiment that asks for the same
// parameters. A Cache keys each construction by (kind, parameters), builds on
// first request, and serves shared references afterwards; concurrent first
// requests for the same key are coalesced so each instance is built exactly
// once. Entries are evicted least-recently-used once the total cached node
// count exceeds the bound.
//
// Seeded random samples (the galtonwatson and ladder kinds) are the
// exception: an ensemble draws a fresh seed for every task, so no later
// request repeats a sample's key, and keeping samples would only fill the
// LRU with single-use trees. They are built once per request and never
// cached; concurrent requests for one sample key are still coalesced into
// one build, and every build is counted.
//
// Beyond the bare trees, the cache holds keyed *composite* entries: the
// Definition-25 weighted instances (tree + Active/Weight inputs,
// weighted.BuildInstance) and the Section-10 weight-augmented instances
// (labeling.BuildAugInstance). Both kinds build their tree with
// graph.BuildWeightedHierarchical around a hierarchical core requested
// through the same cache, so every composite sharing a path-length vector
// shares one core tree, and the two kinds differ only in how they mark the
// weight nodes. The composite entry itself is accounted by its full node
// count in the same LRU.
//
// Callers must treat returned values as read-only: trees, input slices, and
// the Hierarchical metadata around them are shared across goroutines. That
// read-only sharing is also what the sharded simulation backend relies on:
// every shard of a sharded run steps its node range of the same cached tree,
// so sharding adds no instance builds and no extra cache occupancy.
package inst

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/labeling"
	"repro/internal/weighted"
)

// DefaultMaxNodes bounds the default cache at ~33.5M cached nodes: large
// enough that one full weighted standard preset stays resident (the
// weighted25-d5k3 standard sweep totals ~22M composite nodes plus ~7M of
// shared hierarchical cores — its warm repeat must perform zero builds)
// while bounding the cache at roughly a gigabyte and a half.
const DefaultMaxNodes = 1 << 25

// Kind names a cached construction family.
type Kind string

// The cached construction kinds: one per graph.Build* entry point used by
// the experiment drivers, plus the composite weighted/weight-augmented
// instances of Definitions 25 and 67.
const (
	KindPath         Kind = "path"
	KindBalanced     Kind = "balanced"
	KindHierarchical Kind = "hierarchical"
	KindWeighted     Kind = "weighted"
	KindAug          Kind = "weightaug"
	KindGW           Kind = "galtonwatson"
	KindLadder       Kind = "ladder"
)

// Kinds lists every construction family in a stable display order.
func Kinds() []Kind {
	return []Kind{KindPath, KindBalanced, KindHierarchical, KindWeighted, KindAug, KindGW, KindLadder}
}

// Key identifies one construction: the kind plus its parameters. Keys are
// comparable and printable (they name the persisted-instance slot in logs,
// counters, and task metadata).
type Key struct {
	Kind Kind
	// A and B are the scalar parameters: Path{n}, Balanced{delta, size};
	// the composite kinds use them for Δ and d.
	A, B int
	// Lengths is the canonical "ell_1,...,ell_k" encoding of a hierarchical
	// construction's path-length vector; empty for scalar kinds.
	Lengths string
	// Variant, K, and Budget parameterize the composite kinds: the problem
	// variant (2½/3½; zero for the weight-augmented problem), the hierarchy
	// depth, and the per-level weight budget.
	Variant uint8
	K       int
	Budget  int
	// Seed identifies one sample of a seeded random family (the
	// galtonwatson/ladder kinds); zero for deterministic constructions.
	// Sampled trees are pure functions of (parameters, seed), so the key
	// still fully determines the instance.
	Seed uint64
}

func (k Key) String() string {
	switch k.Kind {
	case KindPath:
		return fmt.Sprintf("path(%d)", k.A)
	case KindBalanced:
		return fmt.Sprintf("balanced(%d,%d)", k.A, k.B)
	case KindHierarchical:
		return fmt.Sprintf("hierarchical(%s)", k.Lengths)
	case KindWeighted:
		return fmt.Sprintf("weighted(%s,Δ=%d,d=%d,k=%d,ℓ=%s,w=%d)",
			hierarchy.Variant(k.Variant), k.A, k.B, k.K, k.Lengths, k.Budget)
	case KindAug:
		return fmt.Sprintf("weightaug(Δ=%d,k=%d,ℓ=%s,w=%d)", k.A, k.K, k.Lengths, k.Budget)
	case KindGW:
		return fmt.Sprintf("galtonwatson(%d,c=%d,seed=%d)", k.A, k.B, k.Seed)
	case KindLadder:
		return fmt.Sprintf("ladder(%d,seed=%d)", k.A, k.Seed)
	}
	return fmt.Sprintf("%s(%d,%d,%s)", k.Kind, k.A, k.B, k.Lengths)
}

// Core returns the key of the hierarchical core the instance is built
// around: the composite weighted/weight-augmented kinds share a
// KindHierarchical core tree (they request it through the same cache — see
// Weighted and Aug), so their core key names the entry concurrent composites
// can reuse. Every other kind is its own core. Schedulers use the core key
// as a task-affinity group: tasks whose instances share a core are routed to
// the same worker process so the core is built once per process.
func (k Key) Core() Key {
	switch k.Kind {
	case KindWeighted, KindAug:
		return Key{Kind: KindHierarchical, Lengths: k.Lengths}
	}
	return k
}

// sampled reports whether k names one seeded random sample, which the
// cache builds per request instead of keeping (see the package doc).
func (k Key) sampled() bool { return k.Kind == KindGW || k.Kind == KindLadder }

// PathKey is the cache key for graph.BuildPath(n).
func PathKey(n int) Key { return Key{Kind: KindPath, A: n} }

// BalancedKey is the cache key for graph.BuildBalanced(delta, size).
func BalancedKey(delta, size int) Key { return Key{Kind: KindBalanced, A: delta, B: size} }

// HierarchicalKey is the cache key for graph.BuildHierarchical(lengths).
func HierarchicalKey(lengths []int) Key {
	return Key{Kind: KindHierarchical, Lengths: encodeLengths(lengths)}
}

// WeightedKey is the cache key for weighted.BuildInstance(p, lengths,
// budget): the full problem parameters (variant, Δ, d, k), the core's
// path-length vector, and the per-level weight budget.
func WeightedKey(p weighted.Problem, lengths []int, budget int) Key {
	return Key{
		Kind:    KindWeighted,
		A:       p.Delta,
		B:       p.D,
		K:       p.K,
		Variant: uint8(p.Variant),
		Lengths: encodeLengths(lengths),
		Budget:  budget,
	}
}

// AugKey is the cache key for labeling.BuildAugInstance(k, delta, lengths,
// budget).
func AugKey(k, delta int, lengths []int, budget int) Key {
	return Key{
		Kind:    KindAug,
		A:       delta,
		K:       k,
		Lengths: encodeLengths(lengths),
		Budget:  budget,
	}
}

// GWKey is the cache key for graph.BuildGaltonWatson(n, maxChildren, seed).
func GWKey(n, maxChildren int, seed uint64) Key {
	return Key{Kind: KindGW, A: n, B: maxChildren, Seed: seed}
}

// LadderKey is the cache key for graph.BuildLadder(n, seed).
func LadderKey(n int, seed uint64) Key {
	return Key{Kind: KindLadder, A: n, Seed: seed}
}

func encodeLengths(lengths []int) string {
	var b strings.Builder
	for i, l := range lengths {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(l))
	}
	return b.String()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts requests served from a cached entry.
	Hits uint64 `json:"hits"`
	// Misses counts requests that found no entry and triggered (or joined) a
	// build.
	Misses uint64 `json:"misses"`
	// Coalesced counts misses that joined another goroutine's in-flight
	// build instead of building themselves (singleflight sharing).
	Coalesced uint64 `json:"coalesced"`
	// Builds counts actual build invocations, successful or failed
	// (failed builds leave no entry). Misses == Builds + Coalesced.
	Builds uint64 `json:"builds"`
	// Evictions counts entries dropped by the LRU size bound.
	Evictions uint64 `json:"evictions"`
	// BuildTime is the cumulative wall-clock time spent inside the builders.
	BuildTime time.Duration `json:"build_time_ns"`
	// Entries and Nodes are the current cache occupancy.
	Entries int   `json:"entries"`
	Nodes   int64 `json:"nodes"`
	// Kinds breaks the counters down by construction family — in
	// particular it separates the composite weighted/weight-augmented
	// entries from the bare tree builds they sit on.
	Kinds map[Kind]KindStats `json:"kinds,omitempty"`
}

// KindStats is one construction family's slice of the counters. A composite
// kind's BuildTime includes any cold core build it triggered (the core build
// is also recorded under its own kind).
type KindStats struct {
	Hits      uint64        `json:"hits"`
	Builds    uint64        `json:"builds"`
	BuildTime time.Duration `json:"build_time_ns"`
	Entries   int           `json:"entries"`
	Nodes     int64         `json:"nodes"`
}

// entry is one cached instance.
type entry struct {
	key   Key
	val   any
	nodes int64
	elem  *list.Element
}

// call is one in-flight build, shared by coalesced requesters.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Cache is a keyed, size-bounded, singleflight-guarded instance cache. The
// zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	maxNodes int64
	entries  map[Key]*entry
	lru      *list.List // front = most recently used; values are *entry
	flight   map[Key]*call
	nodes    int64
	stats    Stats
	perKind  map[Kind]*KindStats // hits/builds/build time only; occupancy derived in Stats
}

// New returns a Cache bounded at maxNodes total cached tree nodes
// (maxNodes <= 0 selects DefaultMaxNodes).
func New(maxNodes int64) *Cache {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	return &Cache{
		maxNodes: maxNodes,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		flight:   make(map[Key]*call),
		perKind:  make(map[Kind]*KindStats),
	}
}

// kindLocked returns the per-kind counter slot for k, creating it on first
// use. Callers hold c.mu.
func (c *Cache) kindLocked(k Kind) *KindStats {
	ks, ok := c.perKind[k]
	if !ok {
		ks = &KindStats{}
		c.perKind[k] = ks
	}
	return ks
}

// Path returns the cached path with n nodes, building it on first request.
func (c *Cache) Path(n int) (*graph.Tree, error) {
	v, err := c.get(PathKey(n), func() (any, int64, error) {
		t, err := graph.BuildPath(n)
		if err != nil {
			return nil, 0, err
		}
		return t, int64(t.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Tree), nil
}

// Balanced returns the cached balanced Δ-regular tree with exactly size
// nodes, building it on first request.
func (c *Cache) Balanced(delta, size int) (*graph.Tree, error) {
	v, err := c.get(BalancedKey(delta, size), func() (any, int64, error) {
		t, err := graph.BuildBalanced(delta, size)
		if err != nil {
			return nil, 0, err
		}
		return t, int64(t.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Tree), nil
}

// Hierarchical returns the cached Definition-18 lower-bound graph for the
// given path-length vector, building it on first request.
func (c *Cache) Hierarchical(lengths []int) (*graph.Hierarchical, error) {
	v, err := c.get(HierarchicalKey(lengths), func() (any, int64, error) {
		h, err := graph.BuildHierarchical(lengths)
		if err != nil {
			return nil, 0, err
		}
		return h, int64(h.Tree.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Hierarchical), nil
}

// Weighted returns the cached Definition-25 weighted composite instance
// (hierarchical core plus attached weight trees and Active/Weight inputs)
// for problem p, core path lengths, and per-level weight budget, building it
// on first request. The core is requested through Hierarchical on the same
// cache, so composites sharing a path-length vector share one core tree; the
// composite entry is accounted by the full composite node count.
func (c *Cache) Weighted(p weighted.Problem, lengths []int, budget int) (*weighted.Instance, error) {
	v, err := c.get(WeightedKey(p, lengths, budget), func() (any, int64, error) {
		h, err := c.Hierarchical(lengths)
		if err != nil {
			return nil, 0, err
		}
		in, err := weighted.BuildInstanceFrom(p, h, budget)
		if err != nil {
			return nil, 0, err
		}
		return in, int64(in.Tree.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*weighted.Instance), nil
}

// Aug returns the cached Section-10 weight-augmented composite instance for
// hierarchy depth k, degree bound delta, core path lengths, and per-level
// weight budget, building it on first request. Like Weighted, the core is
// shared through the cache's Hierarchical entry.
func (c *Cache) Aug(k, delta int, lengths []int, budget int) (*labeling.AugInstance, error) {
	v, err := c.get(AugKey(k, delta, lengths, budget), func() (any, int64, error) {
		h, err := c.Hierarchical(lengths)
		if err != nil {
			return nil, 0, err
		}
		in, err := labeling.BuildAugInstanceFrom(k, delta, h, budget)
		if err != nil {
			return nil, 0, err
		}
		return in, int64(in.Tree.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*labeling.AugInstance), nil
}

// GaltonWatson returns the Galton-Watson sample for (n, maxChildren, seed).
// The sample is a pure function of its key (see graph.BuildGaltonWatson);
// it is built per request and not cached (see the package doc), and
// concurrent requests for one key share one build.
func (c *Cache) GaltonWatson(n, maxChildren int, seed uint64) (*graph.Tree, error) {
	v, err := c.get(GWKey(n, maxChildren, seed), func() (any, int64, error) {
		t, err := graph.BuildGaltonWatson(n, maxChildren, seed)
		if err != nil {
			return nil, 0, err
		}
		return t, int64(t.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Tree), nil
}

// Ladder returns the ladder-tree sample for (n, seed) (see
// graph.BuildLadder), built per request like GaltonWatson's samples.
func (c *Cache) Ladder(n int, seed uint64) (*graph.Tree, error) {
	v, err := c.get(LadderKey(n, seed), func() (any, int64, error) {
		t, err := graph.BuildLadder(n, seed)
		if err != nil {
			return nil, 0, err
		}
		return t, int64(t.N()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Tree), nil
}

// get serves key from the cache, joining an in-flight build or invoking
// build exactly once on a cold key. Build errors are returned to every
// waiter and are not cached, and neither are seeded samples.
func (c *Cache) get(key Key, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.kindLocked(key.Kind).Hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.val, nil
	}
	c.stats.Misses++
	if cl, ok := c.flight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		cl.wg.Wait()
		return cl.val, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	c.flight[key] = cl
	c.mu.Unlock()

	started := time.Now()
	val, nodes, err := build()
	elapsed := time.Since(started)

	c.mu.Lock()
	delete(c.flight, key)
	c.stats.Builds++
	c.stats.BuildTime += elapsed
	ks := c.kindLocked(key.Kind)
	ks.Builds++
	ks.BuildTime += elapsed
	if err == nil && !key.sampled() {
		c.insertLocked(key, val, nodes)
	}
	c.mu.Unlock()

	cl.val, cl.err = val, err
	cl.wg.Done()
	return val, err
}

// insertLocked adds a built instance and evicts least-recently-used entries
// until the node bound holds again. The freshly inserted entry is never
// evicted on its own insert, so instances larger than the bound still serve
// the current callers (they become eviction candidates on the next insert).
func (c *Cache) insertLocked(key Key, val any, nodes int64) {
	e := &entry{key: key, val: val, nodes: nodes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.nodes += nodes
	for c.nodes > c.maxNodes && c.lru.Len() > 1 {
		oldest := c.lru.Back()
		if oldest == nil || oldest == e.elem {
			break
		}
		victim := oldest.Value.(*entry)
		c.lru.Remove(oldest)
		delete(c.entries, victim.key)
		c.nodes -= victim.nodes
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters and current occupancy, including
// the per-kind breakdown (occupancy per kind is derived by walking the
// entry table; the cache holds at most a few dozen entries).
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Nodes = c.nodes
	s.Kinds = make(map[Kind]KindStats, len(c.perKind))
	for kind, ks := range c.perKind {
		s.Kinds[kind] = *ks
	}
	for _, e := range c.entries {
		ks := s.Kinds[e.key.Kind]
		ks.Entries++
		ks.Nodes += e.nodes
		s.Kinds[e.key.Kind] = ks
	}
	return s
}

// Reset drops every cached entry and zeroes the counters. In-flight builds
// complete normally but their results are inserted into the cleared cache.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*entry)
	c.lru = list.New()
	c.nodes = 0
	c.stats = Stats{}
	c.perKind = make(map[Kind]*KindStats)
}
