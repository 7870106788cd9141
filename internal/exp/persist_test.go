package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/measure"
)

func sampleResults(t *testing.T) []*Result {
	t.Helper()
	exps := lookupAll(t, []string{"twocoloring-gap", "survivors"})
	results, err := RunBatch(context.Background(), exps, BatchOptions{
		Config: RunConfig{Preset: PresetQuick},
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestWriteLoadRoundTripDir: the per-result directory form round-trips and
// the files are named by ResultKey.
func TestWriteLoadRoundTripDir(t *testing.T) {
	results := sampleResults(t)
	dir := filepath.Join(t.TempDir(), "out")
	if err := WriteResults(dir, results); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		file := filepath.Join(dir, ResultKey(res)+".json")
		if _, err := os.Stat(file); err != nil {
			t.Fatalf("missing per-result file: %v", err)
		}
	}
	loaded, err := LoadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(results) {
		t.Fatalf("loaded %d results, want %d", len(loaded), len(results))
	}
	if drifts := Compare(results, loaded, 1e-9); len(drifts) != 0 {
		t.Fatalf("round trip drifted: %+v", drifts)
	}
	for _, res := range loaded {
		if res.ElapsedMS != 0 {
			t.Fatal("persisted result kept volatile elapsed_ms")
		}
	}
}

// TestStepsReportedLiveStrippedCanonical: a simulator-backed experiment
// reports its machine-step work on the live result, and Canonical strips it
// (like elapsed_ms) so persisted bytes stay independent of the work counter.
// These runs are unsharded, so they report no shard traffic.
func TestStepsReportedLiveStrippedCanonical(t *testing.T) {
	results := sampleResults(t)
	var sawSteps bool
	for _, res := range results {
		if res.Name == "twocoloring-gap" && res.Steps > 0 {
			sawSteps = true
		}
		if Canonical(res).Steps != 0 {
			t.Fatalf("%s: canonical form kept steps = %d", res.Name, Canonical(res).Steps)
		}
		if res.ShardTraffic != nil {
			t.Fatalf("%s: unsharded run reported shard traffic %+v", res.Name, *res.ShardTraffic)
		}
	}
	if !sawSteps {
		t.Fatal("simulator-backed twocoloring-gap reported no machine-step work")
	}
}

// TestWriteLoadRoundTripAggregateFile: a path ending in .json holds the
// whole canonical batch as one array.
func TestWriteLoadRoundTripAggregateFile(t *testing.T) {
	results := sampleResults(t)
	file := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteResults(file, results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(raw)), "[") {
		t.Fatal("aggregate file is not a JSON array")
	}
	loaded, err := LoadResults(file)
	if err != nil {
		t.Fatal(err)
	}
	if drifts := Compare(results, loaded, 1e-9); len(drifts) != 0 {
		t.Fatalf("round trip drifted: %+v", drifts)
	}
}

// TestWriteDeterministic: writing the same canonical results twice yields
// byte-identical files (the diffability guarantee).
func TestWriteDeterministic(t *testing.T) {
	results := sampleResults(t)
	a := filepath.Join(t.TempDir(), "a.json")
	b := filepath.Join(t.TempDir(), "b.json")
	if err := WriteResults(a, results); err != nil {
		t.Fatal(err)
	}
	// Re-run: deterministic seeds make the content identical up to elapsed,
	// which Canonical strips.
	if err := WriteResults(b, sampleResults(t)); err != nil {
		t.Fatal(err)
	}
	ra, _ := os.ReadFile(a)
	rb, _ := os.ReadFile(b)
	if string(ra) != string(rb) {
		t.Fatal("two runs persisted different bytes")
	}
}

// TestCompareFlagsDrift: slope drift beyond tolerance, theory-slope
// changes, and one-sided runs are all reported; within-tolerance noise is
// not.
func TestCompareFlagsDrift(t *testing.T) {
	mk := func(name string, slope, theory float64) *Result {
		return &Result{
			Name: name, Preset: "quick", Seed: 1,
			Tables: []measure.Table{{Title: name}},
			Fit:    &Fit{Slope: slope, TheorySlope: theory},
		}
	}
	base := []*Result{mk("a", 1.00, 1), mk("b", 0.50, 0.5), mk("gone", 1, 1)}
	cur := []*Result{mk("a", 1.04, 1), mk("b", 0.70, 0.6), mk("fresh", 1, 1)}

	drifts := Compare(base, cur, 0.05)
	byKey := map[string][]string{}
	for _, d := range drifts {
		byKey[d.Key] = append(byKey[d.Key], d.Field)
	}
	if len(byKey["a__quick__seed1"]) != 0 {
		t.Fatalf("within-tolerance slope flagged: %+v", drifts)
	}
	bFields := strings.Join(byKey["b__quick__seed1"], ",")
	if !strings.Contains(bFields, "slope") || !strings.Contains(bFields, "theory_slope") {
		t.Fatalf("slope/theory drift not flagged for b: %+v", drifts)
	}
	if fields := byKey["gone__quick__seed1"]; len(fields) != 1 || fields[0] != "missing" {
		t.Fatalf("missing run not flagged: %+v", drifts)
	}
	if fields := byKey["fresh__quick__seed1"]; len(fields) != 1 || fields[0] != "extra" {
		t.Fatalf("extra run not flagged: %+v", drifts)
	}
}

// TestCompareTableShape: table-count changes and fit appearance changes are
// drifts even when no slope exists.
func TestCompareTableShape(t *testing.T) {
	base := []*Result{{Name: "t", Preset: "quick", Tables: []measure.Table{{}, {}}}}
	cur := []*Result{{Name: "t", Preset: "quick", Tables: []measure.Table{{}}}}
	drifts := Compare(base, cur, 0.05)
	if len(drifts) != 1 || drifts[0].Field != "tables" {
		t.Fatalf("table shape change not flagged: %+v", drifts)
	}
	cur[0].Fit = &Fit{Slope: 1}
	drifts = Compare(base, cur, 0.05)
	if len(drifts) == 0 {
		t.Fatal("fit appearance not flagged")
	}
}

// TestWriteDirDropsStaleFiles: rewriting a result directory removes files
// from earlier writes, so a reused -out dir never feeds phantom runs into
// Compare.
func TestWriteDirDropsStaleFiles(t *testing.T) {
	results := sampleResults(t)
	dir := filepath.Join(t.TempDir(), "out")
	if err := WriteResults(dir, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteResults(dir, results[:1]); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("stale files survived rewrite: loaded %d results, want 1", len(loaded))
	}
}

// TestCompareFitlessContent: fit-less results (analytic/discrete tables)
// must reproduce exactly — a changed cell is a drift even when the table
// shape is unchanged.
func TestCompareFitlessContent(t *testing.T) {
	mk := func(cell string) []*Result {
		return []*Result{{
			Name: "t", Preset: "quick",
			Tables: []measure.Table{{
				Title:  "analytic",
				Header: []string{"a", "b"},
				Rows:   [][]string{{"1", cell}},
			}},
		}}
	}
	if drifts := Compare(mk("x"), mk("x"), 0.05); len(drifts) != 0 {
		t.Fatalf("identical fit-less tables flagged: %+v", drifts)
	}
	drifts := Compare(mk("x"), mk("y"), 0.05)
	if len(drifts) != 1 || drifts[0].Field != "tables" {
		t.Fatalf("changed fit-less cell not flagged: %+v", drifts)
	}
}

// TestLoadResultsErrors: empty directories and malformed files are errors.
func TestLoadResultsErrors(t *testing.T) {
	if _, err := LoadResults(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResults(bad); err == nil {
		t.Fatal("malformed file accepted")
	}
}

// FuzzLoadResults: LoadResults reads files from outside the process, so it
// must reject any input it cannot use with an error, never a panic, and
// every result it accepts must be one CanonicalJSON renders as a fixed
// point: loading those bytes back and encoding them again gives the same
// bytes.
func FuzzLoadResults(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		file := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		results, err := LoadResults(file)
		if err != nil {
			return
		}
		for i, res := range results {
			raw, err := CanonicalJSON(res)
			if err != nil {
				t.Fatalf("result %d: CanonicalJSON: %v", i, err)
			}
			if err := os.WriteFile(file, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			back, err := LoadResults(file)
			if err != nil || len(back) != 1 {
				t.Fatalf("result %d: reloading %s gave %d results, error %v", i, raw, len(back), err)
			}
			again, err := CanonicalJSON(back[0])
			if err != nil {
				t.Fatalf("result %d: CanonicalJSON after reload: %v", i, err)
			}
			if !bytes.Equal(raw, again) {
				t.Fatalf("result %d: canonical bytes are no fixed point:\n%s\nreloaded as\n%s", i, raw, again)
			}
		}
	})
}
