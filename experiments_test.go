// The end-to-end driver tests, exercised through the registry entry point
// RunExperiment at explicit sizes and seeds (the quick-preset catalog bytes
// are pinned separately, against BENCH_experiments.json).
package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// runSized runs the catalog entry name at the given sweep values and seed.
func runSized(t *testing.T, name string, sizes []int, seed uint64) *RunResult {
	t.Helper()
	res, err := RunExperiment(context.Background(), name, RunConfig{Sizes: sizes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHierarchical35SlopeIsLinearInScale(t *testing.T) {
	res := runSized(t, "hierarchical35-k2", []int{4, 8, 16, 24}, 1)
	if res.Fit.Slope < 0.7 || res.Fit.Slope > 1.3 {
		t.Fatalf("slope %.3f, want ~1 (Theorem 11 shape)", res.Fit.Slope)
	}
}

func TestHierarchical35K3(t *testing.T) {
	res := runSized(t, "hierarchical35-k3", []int{2, 3, 4}, 2)
	if len(res.Fit.Points) != 3 {
		t.Fatal("missing points")
	}
}

func TestWeighted25SlopeMatchesAlpha1(t *testing.T) {
	res := runSized(t, "weighted25-d5", []int{4000, 16000, 64000}, 3)
	if res.Fit.Slope < res.Fit.TheorySlope-0.2 || res.Fit.Slope > res.Fit.TheorySlope+0.25 {
		t.Fatalf("slope %.3f, theory %.3f", res.Fit.Slope, res.Fit.TheorySlope)
	}
}

func TestWeighted35SlopeWithinBand(t *testing.T) {
	// weighted35-d7 is Π^3.5 at Δ=7, d=3, k=2 with weight factor 3.
	res := runSized(t, "weighted35-d7", []int{8, 16, 32, 64}, 4)
	if res.Fit.Slope < res.Fit.TheorySlope-0.35 || res.Fit.Slope > res.Fit.TheoryUpper+0.35 {
		t.Fatalf("slope %.3f outside [%.3f, %.3f] (±0.35)",
			res.Fit.Slope, res.Fit.TheorySlope, res.Fit.TheoryUpper)
	}
}

func TestWeightAugmentedSlopeIsHalfForK2(t *testing.T) {
	res := runSized(t, "weightaug-k2", []int{2000, 8000, 32000}, 5)
	if res.Fit.Slope < 0.3 || res.Fit.Slope > 0.7 {
		t.Fatalf("slope %.3f, want ~0.5 (Lemma 69)", res.Fit.Slope)
	}
}

func TestTwoColoringGapSlopeIsLinear(t *testing.T) {
	res := runSized(t, "twocoloring-gap", []int{200, 400, 800}, 6)
	if res.Fit.Slope < 0.85 || res.Fit.Slope > 1.15 {
		t.Fatalf("slope %.3f, want ~1 (Corollary 60)", res.Fit.Slope)
	}
}

func TestCopyFractionSlopeMatchesX(t *testing.T) {
	// copyfraction-d5 is Algorithm 𝒜 at Δ=5, d=2; its points ignore the seed.
	res := runSized(t, "copyfraction-d5", []int{500, 2000, 8000, 32000}, 0)
	if res.Fit.Slope < res.Fit.TheorySlope-0.15 || res.Fit.Slope > res.Fit.TheorySlope+0.15 {
		t.Fatalf("slope %.3f, theory x = %.3f", res.Fit.Slope, res.Fit.TheorySlope)
	}
}

func TestDensityTables(t *testing.T) {
	ctx := context.Background()
	tb, err := exp.DensityPoly(ctx, [][2]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("missing poly density rows")
	}
	tb2, err := exp.DensityLogStar(ctx, [][2]float64{{0.3, 0.5}}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb2.Rows) != 1 {
		t.Fatal("missing log* density rows")
	}
}

func TestPathLCLTable(t *testing.T) {
	res := runSized(t, "pathlcl-classify", nil, 0)
	text := res.Tables[0].Format()
	for _, want := range []string{"2-coloring", "Θ(n)", "3-coloring", "Θ(log* n)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
}

func TestLandscapeFigures(t *testing.T) {
	res := runSized(t, "landscape-figures", nil, 0)
	f1, f2 := res.Tables[0], res.Tables[1]
	if len(f1.Rows) < 5 || len(f2.Rows) < 7 {
		t.Fatal("figure tables too small")
	}
	if !strings.Contains(f2.Format(), "Theorem 7") {
		t.Fatal("Figure 2 missing the new gap")
	}
}

func TestTableFormatsRender(t *testing.T) {
	res := runSized(t, "twocoloring-gap", []int{100, 200}, 1)
	if !strings.Contains(res.Tables[0].Format(), "node-avg") {
		t.Fatal("plain format broken")
	}
	if !strings.Contains(res.Tables[0].Markdown(), "| n |") {
		t.Fatal("markdown format broken")
	}
}

func TestSurvivorCounts(t *testing.T) {
	tb, err := exp.SurvivorCounts(context.Background(), []int{40, 60}, []int{5, 10, 20, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
}

// TestQuickCatalogMatchesCommittedBytes pins the whole catalog at the quick
// preset to the committed BENCH_experiments.json, byte for byte. It is the
// reference independent of the task plans: the batch-versus-serial tests
// compare one plan with itself, this compares it with what it produced when
// the file was last regenerated.
func TestQuickCatalogMatchesCommittedBytes(t *testing.T) {
	want, err := os.ReadFile("BENCH_experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBatch(context.Background(), Experiments(), BatchOptions{Config: RunConfig{Preset: "quick"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.json")
	if err := WriteResults(path, results); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick catalog differs from BENCH_experiments.json (got %d bytes, want %d); "+
			"regenerate the file only for a deliberate result change", len(got), len(want))
	}
}
