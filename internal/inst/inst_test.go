package inst

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/weighted"
)

// TestHitMissCounters: a cold request builds, a warm repeat is served from
// cache with zero additional builds.
func TestHitMissCounters(t *testing.T) {
	c := New(0)
	a, err := c.Path(50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Path(50)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("warm request returned a different instance")
	}
	s := c.Stats()
	if s.Builds != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 build, 1 miss, 1 hit", s)
	}
	if s.Entries != 1 || s.Nodes != 50 {
		t.Fatalf("occupancy = %d entries / %d nodes, want 1/50", s.Entries, s.Nodes)
	}
	if s.BuildTime <= 0 {
		t.Fatal("build time not recorded")
	}
}

// TestKeySeparation: different kinds and parameters occupy distinct slots.
func TestKeySeparation(t *testing.T) {
	c := New(0)
	if _, err := c.Path(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Path(11); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Balanced(3, 10); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Hierarchical([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Hierarchical([]int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct length vectors shared one slot")
	}
	if s := c.Stats(); s.Builds != 5 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 5 distinct builds", s)
	}
	if HierarchicalKey([]int{3, 4}) == HierarchicalKey([]int{34}) {
		t.Fatal("length encoding is ambiguous")
	}
}

// TestErrorsNotCached: a failing build propagates its error and leaves no
// entry, so a later valid request is unaffected.
func TestErrorsNotCached(t *testing.T) {
	c := New(0)
	if _, err := c.Path(0); err == nil {
		t.Fatal("invalid construction accepted")
	}
	if _, err := c.Path(0); err == nil {
		t.Fatal("invalid construction accepted on repeat")
	}
	s := c.Stats()
	if s.Entries != 0 {
		t.Fatalf("failed build cached: %+v", s)
	}
	if s.Builds != 2 {
		t.Fatalf("failed build coalesced into cache: %+v", s)
	}
}

// TestLRUEviction: exceeding the node bound evicts the least recently used
// entry first.
func TestLRUEviction(t *testing.T) {
	c := New(100)
	if _, err := c.Path(40); err != nil { // oldest
		t.Fatal(err)
	}
	if _, err := c.Path(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Path(40); err != nil { // touch: 40 now most recent
		t.Fatal(err)
	}
	if _, err := c.Path(30); err != nil { // 120 > 100: evicts 50
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Nodes != 70 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 70 nodes in 2 entries", s)
	}
	if _, err := c.Path(40); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Builds != s.Builds {
		t.Fatal("recently used entry was evicted")
	}
	if _, err := c.Path(50); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Builds != s.Builds+1 {
		t.Fatal("least recently used entry survived eviction")
	}
}

// TestOversizedInstanceStillServed: an instance larger than the whole bound
// is built, returned, and kept until the next insert.
func TestOversizedInstanceStillServed(t *testing.T) {
	c := New(10)
	tr, err := c.Path(100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 100 {
		t.Fatalf("got %d nodes", tr.N())
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("oversized entry dropped on its own insert: %+v", s)
	}
	if _, err := c.Path(5); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Nodes > 10 {
		t.Fatalf("bound not restored on next insert: %+v", s)
	}
}

// TestSingleflightCoalesces: concurrent cold requests for one key share a
// single build.
func TestSingleflightCoalesces(t *testing.T) {
	c := New(0)
	const workers = 16
	trees := make([]*graph.Tree, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Hierarchical([]int{20, 30})
			if err != nil {
				t.Error(err)
				return
			}
			trees[i] = tr.Tree
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if trees[i] != trees[0] {
			t.Fatal("coalesced requests returned distinct instances")
		}
	}
	s := c.Stats()
	if s.Builds != 1 {
		t.Fatalf("%d builds for one key under contention", s.Builds)
	}
	if s.Hits+s.Coalesced != workers-1 {
		t.Fatalf("stats = %+v, want %d shared requests", s, workers-1)
	}
}

// TestConcurrentMixedLoad hammers the cache from many goroutines under
// -race: distinct keys, repeats, and evictions at a tight bound.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(500)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					if _, err := c.Path(10 + i%7); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := c.Balanced(3, 20+i%5); err != nil {
						t.Error(err)
					}
				default:
					if _, err := c.Hierarchical([]int{2 + i%3, 4}); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 8*50 {
		t.Fatalf("requests lost: %+v", s)
	}
	if s.Nodes > 500 && s.Entries > 1 {
		t.Fatalf("bound violated: %+v", s)
	}
}

// TestWeightedCompositeCached: the Definition-25 composite is keyed by
// (problem, lengths, budget), built once, and shares its hierarchical core
// through the same cache.
func TestWeightedCompositeCached(t *testing.T) {
	c := New(0)
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 2}
	a, err := c.Weighted(p, []int{6, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Weighted(p, []int{6, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("warm composite request returned a different instance")
	}
	h, err := c.Hierarchical([]int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hier != h {
		t.Fatal("composite does not share the cached hierarchical core")
	}
	// Different budget or problem parameters are distinct slots.
	if other, err := c.Weighted(p, []int{6, 8}, 200); err != nil {
		t.Fatal(err)
	} else if other == a {
		t.Fatal("budgets share one composite slot")
	}
	s := c.Stats()
	if got := s.Kinds[KindWeighted]; got.Builds != 2 || got.Hits != 1 || got.Entries != 2 {
		t.Fatalf("weighted kind stats = %+v, want 2 builds / 1 hit / 2 entries", got)
	}
	if got := s.Kinds[KindHierarchical]; got.Builds != 1 {
		t.Fatalf("hierarchical core built %d times, want 1 (shared)", got.Builds)
	}
	if got := s.Kinds[KindWeighted]; got.Nodes < int64(a.Tree.N()) {
		t.Fatalf("weighted kind accounts %d nodes, want >= %d (full composite)", got.Nodes, a.Tree.N())
	}
}

// TestAugCompositeCached: same contract for the weight-augmented composite.
func TestAugCompositeCached(t *testing.T) {
	c := New(0)
	a, err := c.Aug(2, 5, []int{6, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Aug(2, 5, []int{6, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("warm aug request returned a different instance")
	}
	s := c.Stats()
	if got := s.Kinds[KindAug]; got.Builds != 1 || got.Hits != 1 || got.Entries != 1 {
		t.Fatalf("aug kind stats = %+v, want 1 build / 1 hit / 1 entry", got)
	}
	if got := s.Kinds[KindAug]; got.BuildTime <= 0 {
		t.Fatal("aug build time not recorded")
	}
	// The weighted and aug composites over the same core are distinct slots.
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 2}
	if WeightedKey(p, []int{6, 8}, 100) == AugKey(2, 5, []int{6, 8}, 100) {
		t.Fatal("weighted and aug keys collide")
	}
}

// TestCompositeBuildErrorsNotCached: invalid composite parameters propagate
// and leave no entry (a later valid request is unaffected).
func TestCompositeBuildErrorsNotCached(t *testing.T) {
	c := New(0)
	bad := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 1}
	if _, err := c.Weighted(bad, []int{6}, 10); err == nil {
		t.Fatal("k=1 composite accepted")
	}
	if _, err := c.Aug(1, 5, []int{6}, 10); err == nil {
		t.Fatal("k=1 aug composite accepted")
	}
	if s := c.Stats(); s.Kinds[KindWeighted].Entries != 0 || s.Kinds[KindAug].Entries != 0 {
		t.Fatalf("failed composite build cached: %+v", s)
	}
}

// TestCompositeKeyStrings: the composite keys print their full parameters
// (they label tasks and cache-stats lines).
func TestCompositeKeyStrings(t *testing.T) {
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 3}
	wk := WeightedKey(p, []int{4, 8, 16}, 1000).String()
	for _, want := range []string{"weighted", "Δ=5", "d=2", "k=3", "4,8,16", "w=1000"} {
		if !strings.Contains(wk, want) {
			t.Fatalf("WeightedKey string %q missing %q", wk, want)
		}
	}
	ak := AugKey(2, 6, []int{3, 9}, 50).String()
	for _, want := range []string{"weightaug", "Δ=6", "k=2", "3,9", "w=50"} {
		if !strings.Contains(ak, want) {
			t.Fatalf("AugKey string %q missing %q", ak, want)
		}
	}
}

// TestReset zeroes counters and occupancy.
func TestReset(t *testing.T) {
	c := New(0)
	if _, err := c.Path(10); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Builds != 0 || s.BuildTime != 0 ||
		s.Entries != 0 || s.Nodes != 0 || len(s.Kinds) != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if _, err := c.Path(10); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Fatalf("entry survived reset: %+v", s)
	}
}

// TestKeyCore: composite keys route to their shared hierarchical core —
// the affinity group the multi-process dispatcher co-locates tasks by —
// while every non-composite key is its own core.
func TestKeyCore(t *testing.T) {
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 2}
	core := HierarchicalKey([]int{4, 16})
	if got := WeightedKey(p, []int{4, 16}, 100).Core(); got != core {
		t.Fatalf("weighted core = %v, want %v", got, core)
	}
	if got := AugKey(2, 5, []int{4, 16}, 100).Core(); got != core {
		t.Fatalf("weightaug core = %v, want %v", got, core)
	}
	// Composites sharing a path-length vector share one core group even
	// when every other parameter differs.
	q := weighted.Problem{Variant: hierarchy.Coloring35, Delta: 7, D: 3, K: 2}
	if WeightedKey(p, []int{4, 16}, 100).Core() != WeightedKey(q, []int{4, 16}, 999).Core() {
		t.Fatal("same-core composites landed in different affinity groups")
	}
	for _, k := range []Key{PathKey(7), BalancedKey(5, 100), core} {
		if k.Core() != k {
			t.Fatalf("non-composite key %v is not its own core (%v)", k, k.Core())
		}
	}
}

// TestStatsJSONRoundTrip: the stats snapshot serializes losslessly — it
// crosses the worker protocol's stats frame, so per-worker counters must
// survive the wire.
func TestStatsJSONRoundTrip(t *testing.T) {
	c := New(0)
	if _, err := c.Path(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Path(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hierarchical([]int{3, 9}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("stats did not round-trip:\n%+v\nvs\n%+v", s, back)
	}
}

// TestSeededSamplesAreNotCached: a seeded sample is built per request and
// leaves no entry, yet two concurrent requests for one sample key still
// share one build. The first request's build blocks until the second has
// joined the flight.
func TestSeededSamplesAreNotCached(t *testing.T) {
	c := New(0)
	if _, err := c.Ladder(40, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ladder(40, 3); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if ks := s.Kinds[KindLadder]; ks.Builds != 2 || ks.Hits != 0 || ks.Entries != 0 || ks.Nodes != 0 {
		t.Fatalf("ladder stats = %+v, want 2 builds and nothing cached", ks)
	}

	key := GWKey(300, 4, 9)
	started, release := make(chan struct{}), make(chan struct{})
	trees := make([]*graph.Tree, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v, err := c.get(key, func() (any, int64, error) {
			close(started)
			<-release
			tr, err := graph.BuildGaltonWatson(300, 4, 9)
			return tr, 300, err
		})
		if err != nil {
			t.Error(err)
			return
		}
		trees[0] = v.(*graph.Tree)
	}()
	<-started
	second := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(second)
		tr, err := c.GaltonWatson(300, 4, 9)
		if err != nil {
			t.Error(err)
			return
		}
		trees[1] = tr
	}()
	// Release the first build once the second request has joined it, or
	// once the second request has returned without joining.
wait:
	for c.Stats().Coalesced == 0 {
		select {
		case <-second:
			break wait
		default:
			runtime.Gosched()
		}
	}
	close(release)
	wg.Wait()
	if trees[0] == nil || trees[0] != trees[1] {
		t.Fatal("concurrent requests for one sample did not share its build")
	}
	s = c.Stats()
	if ks := s.Kinds[KindGW]; s.Coalesced != 1 || ks.Builds != 1 || ks.Entries != 0 || ks.Nodes != 0 {
		t.Fatalf("stats = %+v, want 1 coalesced GW build and nothing cached", s)
	}
	if s.Entries != 0 || s.Nodes != 0 || s.Misses != s.Builds+s.Coalesced {
		t.Fatalf("stats = %+v, want an empty cache and misses = builds + coalesced", s)
	}
}
