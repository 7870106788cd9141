package exp

// The sweep drivers regenerating every table and figure of the paper. Each
// scaling sweep is declared as a sweepSpec: per-run analytic constants plus
// one independent point function per sweep value. The spec feeds both
// execution paths — the serial legacy API (Hierarchical35, Weighted25, ...)
// and the task planner behind RunBatch, which schedules individual sweep
// points across the -jobs pool — so a sweep produces identical results no
// matter how its points are scheduled.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/coloring"
	"repro/internal/dfree"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/inst"
	"repro/internal/labeling"
	"repro/internal/landscape"
	"repro/internal/measure"
	"repro/internal/pathlcl"
	"repro/internal/sim"
	"repro/internal/weighted"
)

// instances is the shared instance provider: every driver requests its
// lower-bound instances here instead of calling the builders directly, so
// repeated presets (CI, benchmarks, sweeps revisiting sizes) build each
// instance exactly once — even across concurrently running tasks (the cache
// is singleflight-guarded). This includes the composite Definition-25
// weighted and Section-10 weight-augmented instances, which dominate the
// standard batch. Cached values are shared and read-only.
var instances = inst.New(0)

// InstanceCache exposes the shared provider, for counter inspection
// (cmd/experiments -cache-stats, tests asserting warm runs build nothing)
// and for explicit Reset in memory-sensitive callers.
func InstanceCache() *inst.Cache { return instances }

// SweepResult is the raw outcome of one scaling experiment: the formatted
// table, the fitted exponent, and the paper's exponent(s).
type SweepResult struct {
	Table       measure.Table
	Slope       float64 // fitted exponent
	TheorySlope float64 // paper's exponent
	// TheoryUpper is the upper-bound exponent where the paper leaves a gap
	// (Theorems 4-5); equal to TheorySlope otherwise.
	TheoryUpper float64
	Points      []measure.Point
	// Steps is the total simulator machine-step work across the sweep's
	// points; 0 for analytic sweeps that never enter the simulator.
	Steps int64
	// Boundary and Crossed total the sharded simulator's boundary edges and
	// cross-shard messages over the sweep's points (0 for unsharded runs);
	// they feed Result.ShardTraffic, never a table cell.
	Boundary int64
	Crossed  int64
}

// finish annotates the table with fit-vs-theory.
func (r *SweepResult) finish(title string, xName string) {
	r.Table.Title = title
	r.Slope, _ = measure.FitLogLog(r.Points)
	r.Table.AddRow("fitted exponent vs "+xName, r.Slope, "", "")
	r.Table.AddRow("theory exponent", r.TheorySlope, "", "")
	if r.TheoryUpper != r.TheorySlope {
		r.Table.AddRow("theory upper exponent", r.TheoryUpper, "", "")
	}
}

// engineConfig carries the simulator execution knobs — worker count, shard
// count, and shard layout — from RunConfig into the simulator-backed point
// functions. No knob affects results: canonical outputs are byte-identical
// at every setting (asserted catalog-wide in shard_equiv_test.go).
type engineConfig struct {
	parallelism int
	shards      int
	layout      string
}

// engCfg extracts the engine knobs of a run configuration.
func engCfg(cfg RunConfig) engineConfig {
	return engineConfig{parallelism: cfg.Parallelism, shards: cfg.Shards, layout: cfg.ShardLayout}
}

// shardTraffic folds a simulated point's per-shard statistics into the
// layout-objective counters: boundary edges (halved — each edge appears in
// both incident shards' statistics) and real messages crossed (counted once,
// on the sending side). Zero for unsharded runs, whose Shards is nil.
func shardTraffic(r *sim.Result) (boundary, crossed int64) {
	for _, s := range r.Shards {
		boundary += int64(s.BoundaryEdges)
		crossed += s.MessagesCrossed
	}
	return boundary / 2, crossed
}

// sweepStep is the per-point cancellation check shared by every driver.
func sweepStep(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("exp: sweep canceled: %w", err)
	}
	return nil
}

// sweepPoint is one completed sweep value: the point entering the log-log
// fit plus its table row cells. steps carries the simulator machine-step
// work of the point (0 for analytic points) and boundary/crossed its shard
// traffic (0 unsharded); all three feed Result.Steps/ShardTraffic only —
// never a table cell — so canonical outputs are unaffected.
type sweepPoint struct {
	pt       measure.Point
	row      []any
	steps    int64
	boundary int64
	crossed  int64
}

// sweepSpec is the decomposed form of a scaling sweep: the analytic
// constants resolved once per run, and one independent point function per
// sweep value. Point functions must be pure up to their (val, seed) inputs —
// no point may observe another point's execution — which is what makes them
// schedulable in any order.
type sweepSpec struct {
	header      []string
	title       string
	xName       string
	theorySlope float64
	theoryUpper float64
	// key identifies the shared-provider instance the point will request:
	// its String() labels the task and its Core() is the task's affinity
	// group for the multi-process dispatcher; nil when untracked.
	key func(val int) inst.Key
	// point runs one sweep value under the point seed derived via
	// PointSeed from the run's base seed.
	point func(ctx context.Context, val int, seed uint64, eng engineConfig) (sweepPoint, error)
}

// assemble combines completed points — in canonical sweep order — into the
// fitted SweepResult. Both the serial path and the task planner funnel
// through here, so their outputs are identical.
func (s *sweepSpec) assemble(points []sweepPoint) *SweepResult {
	res := &SweepResult{TheorySlope: s.theorySlope, TheoryUpper: s.theoryUpper}
	res.Table.Header = s.header
	for _, p := range points {
		res.Points = append(res.Points, p.pt)
		res.Table.AddRow(p.row...)
		res.Steps += p.steps
		res.Boundary += p.boundary
		res.Crossed += p.crossed
	}
	res.finish(s.title, s.xName)
	return res
}

// runSerial executes the sweep's points in order on the calling goroutine —
// the legacy driver behavior, also used by Experiment.Run.
func (s *sweepSpec) runSerial(ctx context.Context, vals []int, seed uint64, eng engineConfig) (*SweepResult, error) {
	points := make([]sweepPoint, 0, len(vals))
	for _, val := range vals {
		if err := sweepStep(ctx); err != nil {
			return nil, err
		}
		p, err := s.point(ctx, val, PointSeed(seed, val), eng)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return s.assemble(points), nil
}

// hierLengths is the Definition-18 path-length vector ℓ_i = T^{2^{i-1}}.
func hierLengths(k, T int) []int {
	lengths := make([]int, k)
	for i := 1; i <= k; i++ {
		lengths[i-1] = ipow(T, 1<<uint(i-1))
	}
	return lengths
}

// hierarchical35Spec declares experiment E-T11 (Theorem 11): the generic
// algorithm for k-hierarchical 3½-coloring on the Definition-18 lower-bound
// graph with ℓ_i = T^{2^{i-1}}, swept over the scale T (the stand-in for
// t = (log* n)^{1/(2^k−1)}; see substitution 5 in DESIGN.md). The measured
// node-averaged complexity must scale like Θ(T), i.e. slope 1 in T.
func hierarchical35Spec(k int) *sweepSpec {
	return &sweepSpec{
		header:      []string{"T", "n", "node-avg rounds", "node-avg / T"},
		title:       fmt.Sprintf("E-T11: k=%d hierarchical 3½-coloring, node-avg ~ Θ(T)", k),
		xName:       "T",
		theorySlope: 1,
		theoryUpper: 1,
		key:         func(T int) inst.Key { return inst.HierarchicalKey(hierLengths(k, T)) },
		point: func(ctx context.Context, T int, seed uint64, _ engineConfig) (sweepPoint, error) {
			gammas := make([]int, k-1)
			for i := 1; i < k; i++ {
				gammas[i-1] = ipow(T, 1<<uint(i-1))
			}
			h, err := instances.Hierarchical(hierLengths(k, T))
			if err != nil {
				return sweepPoint{}, err
			}
			sched, err := hierarchy.NewSchedule(hierarchy.Params{
				Problem: hierarchy.Problem{K: k, Variant: hierarchy.Coloring35},
				Gammas:  gammas,
			})
			if err != nil {
				return sweepPoint{}, err
			}
			levels := graph.ComputeLevels(h.Tree, k)
			ids := sim.DefaultIDs(h.Tree.N(), seed)
			ex, err := hierarchy.RunAnalytic(h.Tree, levels, sched, ids)
			if err != nil {
				return sweepPoint{}, err
			}
			if err := (hierarchy.Problem{K: k, Variant: hierarchy.Coloring35}).Verify(h.Tree, levels, ex.Out); err != nil {
				return sweepPoint{}, fmt.Errorf("T=%d: %w", T, err)
			}
			avg := ex.NodeAveraged()
			return sweepPoint{
				pt:  measure.Point{X: float64(T), Y: avg},
				row: []any{T, h.Tree.N(), avg, avg / float64(T)},
			}, nil
		},
	}
}

// Hierarchical35 runs experiment E-T11 serially (the legacy driver API).
func Hierarchical35(ctx context.Context, k int, scales []int, seed uint64) (*SweepResult, error) {
	return hierarchical35Spec(k).runSerial(ctx, scales, seed, engineConfig{parallelism: 1})
}

// weighted25Spec declares experiment E-T2T3 (Theorems 2-3): A_poly on the
// Definition-25 construction, swept over n; slope vs n must match
// α1(x) = 1/Σ_{j<k}(2−x)^j.
func weighted25Spec(delta, d, k int) (*sweepSpec, error) {
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: delta, D: d, K: k}
	x, err := landscape.EfficiencyX(delta, d)
	if err != nil {
		return nil, err
	}
	alpha1, err := landscape.Alpha1Poly(x, k)
	if err != nil {
		return nil, err
	}
	alphas, err := landscape.Alphas(landscape.RegimePolynomial, x, k)
	if err != nil {
		return nil, err
	}
	return &sweepSpec{
		header:      []string{"n (target)", "node-avg rounds", "waiting node-avg", "waiting / n^α1"},
		title:       fmt.Sprintf("E-T2T3: Π^2.5_{Δ=%d,d=%d,k=%d}, node-avg ~ Θ(n^%.4f)", delta, d, k, alpha1),
		xName:       "n",
		theorySlope: alpha1,
		theoryUpper: alpha1,
		key: func(target int) inst.Key {
			return inst.WeightedKey(p, polyLengths(target, k, alphas), target/k)
		},
		point: func(ctx context.Context, target int, seed uint64, _ engineConfig) (sweepPoint, error) {
			in, err := instances.Weighted(p, polyLengths(target, k, alphas), target/k)
			if err != nil {
				return sweepPoint{}, err
			}
			ids := sim.DefaultIDs(in.Tree.N(), seed)
			sol, err := weighted.SolvePoly(in.Tree, in.Inputs, p, ids)
			if err != nil {
				return sweepPoint{}, err
			}
			if err := p.Verify(in.Tree, in.Inputs, sol.Out); err != nil {
				return sweepPoint{}, fmt.Errorf("n=%d: %w", target, err)
			}
			n := float64(in.Tree.N())
			avg := sol.NodeAveraged()
			// Theorem 2's accounting: weight nodes that output Connect or
			// Decline cost only the O(log n) ball collection and are excluded
			// from the leading term ("their contribution does not exceed the
			// targeted node-averaged complexity"). The waiting average isolates
			// the Θ(n^α1) term, which numerically dominates only for n >> 10^9.
			var waitSum int64
			for v, o := range sol.Out {
				if o.Kind == weighted.KindActive || o.Kind == weighted.KindCopy {
					waitSum += int64(sol.Rounds[v])
				}
			}
			waiting := float64(waitSum) / n
			return sweepPoint{
				pt:  measure.Point{X: n, Y: waiting},
				row: []any{target, avg, waiting, waiting / math.Pow(n, alpha1)},
			}, nil
		},
	}, nil
}

// Weighted25 runs experiment E-T2T3 serially (the legacy driver API).
func Weighted25(ctx context.Context, delta, d, k int, sizes []int, seed uint64) (*SweepResult, error) {
	s, err := weighted25Spec(delta, d, k)
	if err != nil {
		return nil, err
	}
	return s.runSerial(ctx, sizes, seed, engineConfig{parallelism: 1})
}

// polyLengths derives the Definition-25 path lengths ℓ_i = (n')^{α_i} for
// i < k and ℓ_k = n' / Π ℓ_i (with n' = n/k). Degenerate targets clamp to
// the minimum legal lengths, so derivation never fails.
func polyLengths(target, k int, alphas []float64) []int {
	nPrime := float64(target) / float64(k)
	lengths := make([]int, k)
	prod := 1
	for i := 0; i < k-1; i++ {
		l := int(math.Pow(nPrime, alphas[i]))
		if l < 2 {
			l = 2
		}
		lengths[i] = l
		prod *= l
	}
	last := int(nPrime) / prod
	if last < 2 {
		last = 2
	}
	lengths[k-1] = last
	return lengths
}

// weighted35Spec declares experiment E-T4T5 (Theorems 4-5): the Section 8.2
// algorithm for Π^{3.5}_{Δ,d,k} swept over the scale T (the log* n
// stand-in); the fitted slope must land between α1(x) (lower bound) and
// α1(x′) (upper bound).
func weighted35Spec(delta, d, k, weightFactor int) (*sweepSpec, error) {
	p := weighted.Problem{Variant: hierarchy.Coloring35, Delta: delta, D: d, K: k}
	x, err := landscape.EfficiencyX(delta, d)
	if err != nil {
		return nil, err
	}
	xPrime, err := landscape.EfficiencyXPrime(delta, d)
	if err != nil {
		return nil, err
	}
	if xPrime > 1 {
		xPrime = 1
	}
	lower, err := landscape.Alpha1LogStar(x, k)
	if err != nil {
		return nil, err
	}
	upper, err := landscape.Alpha1LogStar(xPrime, k)
	if err != nil {
		return nil, err
	}
	alphas, err := landscape.Alphas(landscape.RegimeLogStar, xPrime, k)
	if err != nil {
		return nil, err
	}
	lengthsOf := func(T int) []int {
		lengths := make([]int, k)
		for i := 0; i < k-1; i++ {
			lengths[i] = maxi(2, int(math.Pow(float64(T), alphas[i])))
		}
		// ℓ_k on the recurrence scale (the paper ties ℓ_k to n and log* n;
		// in the sweep the level-k contribution is dominated — DESIGN.md,
		// substitution 5).
		lengths[k-1] = maxi(4, int(math.Pow(float64(T), alphas[k-2]*(2-xPrime))))
		return lengths
	}
	return &sweepSpec{
		header:      []string{"T", "n", "node-avg rounds", "node-avg / T^α1(x')"},
		title:       fmt.Sprintf("E-T4T5: Π^3.5_{Δ=%d,d=%d,k=%d}, slope in [α1(x)=%.4f, α1(x')=%.4f]", delta, d, k, lower, upper),
		xName:       "T",
		theorySlope: lower,
		theoryUpper: upper,
		key: func(T int) inst.Key {
			lengths := lengthsOf(T)
			total := graph.HierarchicalSize(lengths) * weightFactor
			return inst.WeightedKey(p, lengths, total/k)
		},
		point: func(ctx context.Context, T int, seed uint64, _ engineConfig) (sweepPoint, error) {
			lengths := lengthsOf(T)
			total := graph.HierarchicalSize(lengths) * weightFactor
			in, err := instances.Weighted(p, lengths, total/k)
			if err != nil {
				return sweepPoint{}, err
			}
			ids := sim.DefaultIDs(in.Tree.N(), seed)
			sol, err := weighted.SolveLogStar(in.Tree, in.Inputs, p, ids, T)
			if err != nil {
				return sweepPoint{}, err
			}
			if err := p.Verify(in.Tree, in.Inputs, sol.Out); err != nil {
				return sweepPoint{}, fmt.Errorf("T=%d: %w", T, err)
			}
			avg := sol.NodeAveraged()
			return sweepPoint{
				pt:  measure.Point{X: float64(T), Y: avg},
				row: []any{T, in.Tree.N(), avg, avg / math.Pow(float64(T), upper)},
			}, nil
		},
	}, nil
}

// Weighted35 runs experiment E-T4T5 serially (the legacy driver API).
func Weighted35(ctx context.Context, delta, d, k int, scales []int, weightFactor int, seed uint64) (*SweepResult, error) {
	s, err := weighted35Spec(delta, d, k, weightFactor)
	if err != nil {
		return nil, err
	}
	return s.runSerial(ctx, scales, seed, engineConfig{parallelism: 1})
}

// weightAugmentedSpec declares experiment E-L68 (Lemmas 68-69): the
// weight-augmented 2½-coloring with node-averaged complexity Θ(n^{1/k}).
func weightAugmentedSpec(k, delta int) *sweepSpec {
	lengthsOf := func(target int) []int {
		side := maxi(2, int(math.Pow(float64(target)/float64(k), 1/float64(k))))
		lengths := make([]int, k)
		for i := range lengths {
			lengths[i] = side
		}
		return lengths
	}
	return &sweepSpec{
		header:      []string{"n (target)", "n (built)", "node-avg rounds", "node-avg / n^(1/k)"},
		title:       fmt.Sprintf("E-L68: weight-augmented 2½ (k=%d), node-avg ~ Θ(n^{1/%d})", k, k),
		xName:       "n",
		theorySlope: 1 / float64(k),
		theoryUpper: 1 / float64(k),
		key: func(target int) inst.Key {
			return inst.AugKey(k, delta, lengthsOf(target), target/k)
		},
		point: func(ctx context.Context, target int, seed uint64, _ engineConfig) (sweepPoint, error) {
			in, err := instances.Aug(k, delta, lengthsOf(target), target/k)
			if err != nil {
				return sweepPoint{}, err
			}
			ids := sim.DefaultIDs(in.Tree.N(), seed)
			sol, err := labeling.SolveAug(in.Tree, in.Weight, k, ids)
			if err != nil {
				return sweepPoint{}, err
			}
			if err := labeling.VerifyAug(in.Tree, in.Weight, k, sol.Out); err != nil {
				return sweepPoint{}, fmt.Errorf("n=%d: %w", target, err)
			}
			n := float64(in.Tree.N())
			avg := sol.NodeAveraged()
			return sweepPoint{
				pt:  measure.Point{X: n, Y: avg},
				row: []any{target, in.Tree.N(), avg, avg / math.Pow(n, 1/float64(k))},
			}, nil
		},
	}
}

// WeightAugmented runs experiment E-L68 serially (the legacy driver API).
func WeightAugmented(ctx context.Context, k, delta int, sizes []int, seed uint64) (*SweepResult, error) {
	return weightAugmentedSpec(k, delta).runSerial(ctx, sizes, seed, engineConfig{parallelism: 1})
}

// twoColoringGapSpec declares experiment E-C60 (Corollary 60): 2-coloring a
// path has node-averaged complexity Θ(n) (slope 1), witnessing the
// ω(√n)–o(n) gap. This one runs through the real message-passing simulator;
// parallelism sets the engine's worker count (the result is identical at
// every level).
func twoColoringGapSpec() *sweepSpec {
	return &sweepSpec{
		header:      []string{"n", "node-avg rounds", "node-avg / n", ""},
		title:       "E-C60: 2-coloring a path, node-avg ~ Θ(n)",
		xName:       "n",
		theorySlope: 1,
		theoryUpper: 1,
		key:         func(n int) inst.Key { return inst.PathKey(n) },
		point: func(ctx context.Context, n int, seed uint64, eng engineConfig) (sweepPoint, error) {
			tr, err := instances.Path(n)
			if err != nil {
				return sweepPoint{}, err
			}
			r, err := sim.NewEngine(
				sim.WithIDs(sim.DefaultIDs(n, seed)),
				sim.WithContext(ctx),
				sim.WithParallelism(eng.parallelism),
				sim.WithShards(eng.shards),
				sim.WithShardLayout(sim.ShardLayout(eng.layout)),
			).Run(tr, coloring.TwoColorPathAlgorithm{})
			if err != nil {
				return sweepPoint{}, err
			}
			if _, err := verifiedColors(tr, r.Outputs); err != nil {
				return sweepPoint{}, fmt.Errorf("n=%d: %w", n, err)
			}
			avg := r.NodeAveraged()
			boundary, crossed := shardTraffic(r)
			return sweepPoint{
				pt:       measure.Point{X: float64(n), Y: avg},
				row:      []any{n, avg, avg / float64(n), ""},
				steps:    r.Steps,
				boundary: boundary,
				crossed:  crossed,
			}, nil
		},
	}
}

// TwoColoringGap runs experiment E-C60 serially (the legacy driver API).
func TwoColoringGap(ctx context.Context, sizes []int, seed uint64, parallelism int) (*SweepResult, error) {
	return twoColoringGapSpec().runSerial(ctx, sizes, seed, engineConfig{parallelism: parallelism})
}

// copyFractionSpec declares experiment E-L40 (Lemma 40): the Copy-set size
// of Algorithm 𝒜 on a balanced Δ-regular weight tree scales like w^x with
// x = log(Δ−1−d)/log(Δ−1).
func copyFractionSpec(delta, d int) (*sweepSpec, error) {
	x, err := landscape.EfficiencyX(delta, d)
	if err != nil {
		return nil, err
	}
	return &sweepSpec{
		header:      []string{"w", "copies", "copies / w^x", "bound 6·w^x"},
		title:       fmt.Sprintf("E-L40: Copy-set of Algorithm 𝒜 (Δ=%d, d=%d), size ~ w^%.4f", delta, d, x),
		xName:       "w",
		theorySlope: x,
		theoryUpper: x,
		key:         func(w int) inst.Key { return inst.BalancedKey(delta, w) },
		point: func(ctx context.Context, w int, _ uint64, _ engineConfig) (sweepPoint, error) {
			tr, err := instances.Balanced(delta, w)
			if err != nil {
				return sweepPoint{}, err
			}
			inputs := make([]dfree.Input, w)
			inputs[0] = dfree.InputA
			sol, err := dfree.Solve(tr, inputs, d)
			if err != nil {
				return sweepPoint{}, err
			}
			if err := dfree.Verify(tr, inputs, d, sol.Out); err != nil {
				return sweepPoint{}, err
			}
			copies := 0
			for _, o := range sol.Out {
				if o == dfree.OutCopy {
					copies++
				}
			}
			wx := math.Pow(float64(w), x)
			return sweepPoint{
				pt:  measure.Point{X: float64(w), Y: float64(copies)},
				row: []any{w, copies, float64(copies) / wx, 6 * wx},
			}, nil
		},
	}, nil
}

// CopyFraction runs experiment E-L40 serially (the legacy driver API).
func CopyFraction(ctx context.Context, delta, d int, sizes []int) (*SweepResult, error) {
	s, err := copyFractionSpec(delta, d)
	if err != nil {
		return nil, err
	}
	return s.runSerial(ctx, sizes, 0, engineConfig{parallelism: 1})
}

// DensityPoly runs experiment E-T1 (Theorem 1): for a list of target
// intervals, find (Δ, d, k) with achievable exponent inside.
func DensityPoly(ctx context.Context, intervals [][2]float64) (measure.Table, error) {
	tb := measure.Table{
		Title:  "E-T1: density of Θ(n^c) classes (Theorem 1 / Lemma 58)",
		Header: []string{"target interval", "Δ", "d", "k", "x = a/b", "exponent c"},
	}
	for _, iv := range intervals {
		if err := sweepStep(ctx); err != nil {
			return tb, err
		}
		p, err := landscape.FindPolyParams(iv[0], iv[1])
		if err != nil {
			return tb, err
		}
		tb.AddRow(fmt.Sprintf("[%.3f, %.3f]", iv[0], iv[1]), p.Delta, p.D, p.K, p.X.String(), p.C)
	}
	return tb, nil
}

// DensityLogStar runs experiment E-T6 (Theorem 6).
func DensityLogStar(ctx context.Context, intervals [][2]float64, eps float64) (measure.Table, error) {
	tb := measure.Table{
		Title:  fmt.Sprintf("E-T6: density of (log* n)^c classes (Theorem 6, ε=%.3f)", eps),
		Header: []string{"target interval", "Δ", "d", "k", "c (lower)", "c+ε bound (upper)"},
	}
	for _, iv := range intervals {
		if err := sweepStep(ctx); err != nil {
			return tb, err
		}
		p, err := landscape.FindLogStarParams(iv[0], iv[1], eps)
		if err != nil {
			return tb, err
		}
		tb.AddRow(fmt.Sprintf("[%.3f, %.3f]", iv[0], iv[1]), p.Delta, p.D, p.K, p.C, p.CUpper)
	}
	return tb, nil
}

// DensitySamples runs experiment E-DENSE: the executable rendering of the
// "infinitely dense" bars of Figure 2. For each regime it samples `samples`
// achievable exponents evenly spread in (lo, hi), each witnessed by concrete
// (Δ, d, k) parameters. The polynomial regime is clamped below 1/2 (Theorem
// 1's range); this mirrors what cmd/landscape -samples historically printed.
func DensitySamples(ctx context.Context, samples int, lo, hi float64) ([]measure.Table, error) {
	var tables []measure.Table
	for _, regime := range []landscape.Regime{landscape.RegimePolynomial, landscape.RegimeLogStar} {
		if err := sweepStep(ctx); err != nil {
			return nil, err
		}
		a, b := lo, hi
		if regime == landscape.RegimePolynomial && b > 0.5 {
			b = 0.49
		}
		pts, err := landscape.SampleDensityPoints(regime, a, b, samples)
		if err != nil {
			return nil, err
		}
		tb := measure.Table{
			Title:  fmt.Sprintf("E-DENSE: density samples, %v regime, %d points in (%.3g, %.3g)", regime, samples, a, b),
			Header: []string{"exponent", "Δ", "d", "k"},
		}
		for _, p := range pts {
			tb.AddRow(p.Exponent, p.Delta, p.D, p.K)
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// PathLCLTable runs experiment E-T7: the decision procedure on the
// catalogue of path LCLs.
func PathLCLTable() (measure.Table, error) {
	tb := measure.Table{
		Title:  "E-T7: path-LCL classification (decidability demonstration)",
		Header: []string{"problem", "worst-case class", "node-avg class (Lemma 16)", ""},
	}
	for _, p := range pathlcl.Catalogue() {
		class, err := pathlcl.Classify(p)
		if err != nil {
			return tb, err
		}
		tb.AddRow(p.Name, class.String(), class.String(), "")
	}
	return tb, nil
}

// LandscapeFigures renders Figures 1 and 2 as tables.
func LandscapeFigures() (measure.Table, measure.Table) {
	render := func(title string, entries []landscape.Entry) measure.Table {
		tb := measure.Table{Title: title, Header: []string{"region", "status", "source", "new"}}
		for _, e := range entries {
			isNew := ""
			if e.New {
				isNew = "*"
			}
			tb.AddRow(e.Region, e.Status, e.Source, isNew)
		}
		return tb
	}
	return render("Figure 1: landscape before this paper", landscape.Figure1()),
		render("Figure 2: landscape after this paper", landscape.Figure2())
}

// SurvivorCounts runs experiment E-GEN (Lemma 13): after phase i of the
// generic algorithm with parameter γ_i, at most O(n'/γ_i) nodes of level
// > i remain undecided. The driver runs the k=2 generic 3½ algorithm on the
// lower-bound graph for a range of γ values and reports the survivor count
// next to the charging bound from the lemma's proof (each surviving node
// accounts for γ/2 terminated level-1 nodes, so survivors <= c·n/γ).
func SurvivorCounts(ctx context.Context, lengths []int, gammas []int, seed uint64) (measure.Table, error) {
	tb := measure.Table{
		Title:  "E-GEN: Lemma 13 survivor counts after phase 1 (k=2, 3½)",
		Header: []string{"γ1", "n", "survivors", "bound c·n/γ (c=8)"},
	}
	h, err := instances.Hierarchical(lengths)
	if err != nil {
		return tb, err
	}
	levels := graph.ComputeLevels(h.Tree, 2)
	ids := sim.DefaultIDs(h.Tree.N(), seed)
	for _, gamma := range gammas {
		if err := sweepStep(ctx); err != nil {
			return tb, err
		}
		sched, err := hierarchy.NewSchedule(hierarchy.Params{
			Problem: hierarchy.Problem{K: 2, Variant: hierarchy.Coloring35},
			Gammas:  []int{gamma},
		})
		if err != nil {
			return tb, err
		}
		ex, err := hierarchy.RunAnalytic(h.Tree, levels, sched, ids)
		if err != nil {
			return tb, err
		}
		survivors := 0
		for v := range ex.Rounds {
			if ex.Rounds[v] >= sched.Start(2) {
				survivors++
			}
		}
		bound := 8 * h.Tree.N() / gamma
		if survivors > bound {
			return tb, fmt.Errorf("exp: Lemma 13 violated: %d survivors > %d at γ=%d",
				survivors, bound, gamma)
		}
		tb.AddRow(gamma, h.Tree.N(), survivors, bound)
	}
	return tb, nil
}

func ipow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
