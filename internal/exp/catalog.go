package exp

// The built-in catalog: every experiment of the index in
// docs/EXPERIMENTS.md, registered in the order cmd/experiments historically
// printed them. "standard" matches the old default run exactly; "quick" is
// a small smoke sweep (the old -quick values where that flag shrank the
// sweep, and a genuinely smaller sweep for hierarchical35-k3 and survivors,
// which the old flag left at full size); "stress" extends one or two
// doublings past standard.

import (
	"context"

	"repro/internal/measure"
)

// Fixed, sweep-free parameter sets of the density searches (the sweep axis
// of those experiments is an interval list, not a size list).
var (
	densityPolyIntervals = [][2]float64{
		{0.05, 0.1}, {0.1, 0.2}, {0.2, 0.3}, {0.3, 0.4}, {0.4, 0.5},
	}
	densityLogStarIntervals = [][2]float64{{0.2, 0.4}, {0.4, 0.6}, {0.6, 0.8}}
	densityLogStarEps       = 0.05
)

// survivorLengths is the fixed k=2 lower-bound graph of the E-GEN sweep;
// the preset axis is the γ list.
var survivorLengths = []int{60, 90}

func init() {
	MustRegister(tableExperiment(
		"landscape-figures",
		"Figures 1 and 2: the node-averaged complexity landscape before and after the paper.",
		"Figures 1-2",
		nil, 0,
		func(_ context.Context, _ []int, _ uint64) ([]measure.Table, error) {
			f1, f2 := LandscapeFigures()
			return []measure.Table{f1, f2}, nil
		}))

	MustRegister(sweepExperiment(
		"hierarchical35-k2",
		"Generic algorithm for 2-hierarchical 3½-coloring on the Definition-18 lower-bound graph; node-avg ~ Θ(T).",
		"Theorem 11 (E-T11)",
		map[string][]int{
			PresetQuick:    {8, 16, 32},
			PresetStandard: {12, 24, 48, 96, 144},
			PresetStress:   {12, 24, 48, 96, 144, 216, 288},
		}, 1,
		func() (*sweepSpec, error) { return hierarchical35Spec(2), nil }))

	MustRegister(sweepExperiment(
		"hierarchical35-k3",
		"Generic algorithm for 3-hierarchical 3½-coloring; node-avg ~ Θ(T) with ℓ_i = T^{2^{i-1}}.",
		"Theorem 11 (E-T11)",
		map[string][]int{
			PresetQuick:    {2, 3, 4},
			PresetStandard: {2, 3, 4, 5, 6},
			PresetStress:   {2, 3, 4, 5, 6, 7},
		}, 2,
		func() (*sweepSpec, error) { return hierarchical35Spec(3), nil }))

	weighted25 := func(name, desc string, delta, d, k int, standard, stress []int) {
		MustRegister(sweepExperiment(
			name, desc, "Theorems 2-3 (E-T2T3)",
			map[string][]int{
				PresetQuick:    {4000, 16000, 64000},
				PresetStandard: standard,
				PresetStress:   stress,
			}, 3,
			func() (*sweepSpec, error) { return weighted25Spec(delta, d, k) }))
	}
	weighted25("weighted25-d5",
		"A_poly on the Definition-25 construction for Π^2.5_{Δ=5,d=2,k=2}; waiting node-avg ~ Θ(n^α1).",
		5, 2, 2,
		[]int{16000, 64000, 256000, 1024000, 4096000},
		[]int{16000, 64000, 256000, 1024000, 4096000, 16384000})
	weighted25("weighted25-d6",
		"A_poly on the Definition-25 construction for Π^2.5_{Δ=6,d=2,k=2}; waiting node-avg ~ Θ(n^α1).",
		6, 2, 2,
		[]int{16000, 64000, 256000, 1024000, 4096000},
		[]int{16000, 64000, 256000, 1024000, 4096000, 16384000})
	weighted25("weighted25-d5k3",
		"A_poly on the Definition-25 construction for Π^2.5_{Δ=5,d=2,k=3}; waiting node-avg ~ Θ(n^α1).",
		5, 2, 3,
		[]int{64000, 256000, 1024000, 4096000, 16384000},
		[]int{64000, 256000, 1024000, 4096000, 16384000, 65536000})

	weighted35 := func(name string, delta int) {
		MustRegister(sweepExperiment(
			name,
			"Section-8.2 algorithm for Π^3.5; fitted slope must land between α1(x) and α1(x').",
			"Theorems 4-5 (E-T4T5)",
			map[string][]int{
				PresetQuick:    {8, 16, 32},
				PresetStandard: {16, 32, 64, 128, 256},
				PresetStress:   {16, 32, 64, 128, 256, 512},
			}, 4,
			func() (*sweepSpec, error) { return weighted35Spec(delta, 3, 2, 3) }))
	}
	weighted35("weighted35-d7", 7)
	weighted35("weighted35-d9", 9)

	weightAug := func(name string, k int) {
		MustRegister(sweepExperiment(
			name,
			"Section-10 weight-augmented 2½-coloring; node-avg ~ Θ(n^{1/k}).",
			"Lemmas 68-69 (E-L68)",
			map[string][]int{
				PresetQuick:    {4000, 16000, 64000},
				PresetStandard: {16000, 64000, 256000, 1024000},
				PresetStress:   {16000, 64000, 256000, 1024000, 4096000},
			}, 5,
			func() (*sweepSpec, error) { return weightAugmentedSpec(k, 5), nil }))
	}
	weightAug("weightaug-k2", 2)
	weightAug("weightaug-k3", 3)

	MustRegister(sweepExperiment(
		"twocoloring-gap",
		"2-coloring a path through the message-passing simulator; node-avg ~ Θ(n), witnessing the ω(√n)–o(n) gap. Simulator-backed: honors -parallel.",
		"Corollary 60 (E-C60)",
		map[string][]int{
			PresetQuick:    {200, 400, 800},
			PresetStandard: {200, 400, 800, 1600},
			PresetStress:   {200, 400, 800, 1600, 3200, 6400},
		}, 6,
		func() (*sweepSpec, error) { return twoColoringGapSpec(), nil }))

	copyFraction := func(name string, delta, d int) {
		MustRegister(sweepExperiment(
			name,
			"Copy-set size of Algorithm 𝒜 on balanced Δ-regular weight trees; size ~ w^x.",
			"Lemma 40 (E-L40)",
			map[string][]int{
				PresetQuick:    {1000, 4000, 16000},
				PresetStandard: {4000, 16000, 64000, 256000, 1024000},
				PresetStress:   {4000, 16000, 64000, 256000, 1024000, 4096000},
			}, 0,
			func() (*sweepSpec, error) { return copyFractionSpec(delta, d) }))
	}
	copyFraction("copyfraction-d5", 5, 2)
	copyFraction("copyfraction-d7", 7, 3)

	MustRegister(tableExperiment(
		"density-poly",
		"Theorem-1 density search: (Δ,d,k) witnesses with achievable exponent inside each target interval.",
		"Theorem 1 (E-T1)",
		nil, 0,
		func(ctx context.Context, _ []int, _ uint64) ([]measure.Table, error) {
			tb, err := DensityPoly(ctx, densityPolyIntervals)
			if err != nil {
				return nil, err
			}
			return []measure.Table{tb}, nil
		}))

	MustRegister(tableExperiment(
		"density-logstar",
		"Theorem-6 density search in the (log* n)^c regime.",
		"Theorem 6 (E-T6)",
		nil, 0,
		func(ctx context.Context, _ []int, _ uint64) ([]measure.Table, error) {
			tb, err := DensityLogStar(ctx, densityLogStarIntervals, densityLogStarEps)
			if err != nil {
				return nil, err
			}
			return []measure.Table{tb}, nil
		}))

	MustRegister(tableExperiment(
		"landscape-density",
		"Density samples inside the dense bars of Figure 2: achievable exponents with (Δ,d,k) witnesses per regime. Sizes are [samples] or [samples, lo‰, hi‰] (exponent range in thousandths; default 100–450).",
		"Theorems 1 and 6 (E-DENSE)",
		map[string][]int{
			PresetQuick:    {3},
			PresetStandard: {6},
			PresetStress:   {10},
		}, 0,
		func(ctx context.Context, sizes []int, _ uint64) ([]measure.Table, error) {
			samples, lo, hi := 6, 0.1, 0.45
			if len(sizes) > 0 {
				samples = sizes[0]
			}
			if len(sizes) >= 3 {
				lo = float64(sizes[1]) / 1000
				hi = float64(sizes[2]) / 1000
			}
			return DensitySamples(ctx, samples, lo, hi)
		}))

	MustRegister(tableExperiment(
		"pathlcl-classify",
		"Section-11 decision procedure on the catalogue of path LCLs.",
		"Theorem 7 (E-T7)",
		nil, 0,
		func(_ context.Context, _ []int, _ uint64) ([]measure.Table, error) {
			tb, err := PathLCLTable()
			if err != nil {
				return nil, err
			}
			return []measure.Table{tb}, nil
		}))

	// Ensemble experiments: sweeps whose preset values are sample indices,
	// one sampled random tree per task (ensemble.go). Sample i's tree and IDs
	// both derive from PointSeed(seed, i), so the ensembles are deterministic
	// and parallelize across -jobs/-workers/-shards with byte-identical
	// results.
	MustRegister(sweepExperiment(
		"ensemble-gw-linial",
		"Linial (Δ+1)-coloring over a seeded Galton-Watson ensemble (n=3000, uniform {0..3} offspring); cross-ensemble round statistics and color distribution. Simulator-backed: honors -parallel/-shards.",
		"ensembles toward the landscape papers (E-ENS)",
		map[string][]int{
			PresetQuick:    {1, 2, 3, 4},
			PresetStandard: {1, 2, 3, 4, 5, 6, 7, 8},
			PresetStress:   {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		}, 7,
		func() (*sweepSpec, error) { return ensembleGWSpec(3000, 3), nil }))

	MustRegister(sweepExperiment(
		"ensemble-ladder-linial",
		"Linial (Δ+1)-coloring over a seeded ladder-tree ensemble (n=4000, max degree 3); cross-ensemble round statistics and color distribution. Simulator-backed: honors -parallel/-shards.",
		"ensembles toward the landscape papers (E-ENS)",
		map[string][]int{
			PresetQuick:    {1, 2, 3, 4},
			PresetStandard: {1, 2, 3, 4, 5, 6, 7, 8},
			PresetStress:   {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		}, 8,
		func() (*sweepSpec, error) { return ensembleLadderSpec(4000), nil }))

	MustRegister(tableExperiment(
		"survivors",
		"Lemma-13 survivor counts after phase 1 of the generic algorithm, swept over γ.",
		"Lemma 13 (E-GEN)",
		map[string][]int{
			PresetQuick:    {5, 10, 20},
			PresetStandard: {5, 10, 20, 40, 60},
			PresetStress:   {5, 10, 20, 40, 60, 80},
		}, 1,
		func(ctx context.Context, gammas []int, seed uint64) ([]measure.Table, error) {
			tb, err := SurvivorCounts(ctx, survivorLengths, gammas, seed)
			if err != nil {
				return nil, err
			}
			return []measure.Table{tb}, nil
		}))
}
