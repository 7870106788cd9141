package exp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/measure"
)

func dummyExperiment(name string) *Experiment {
	return &Experiment{
		Name: name,
		Run: func(ctx context.Context, cfg RunConfig) (*Result, error) {
			return &Result{Name: name}, nil
		},
	}
}

// TestRegisterLookupListRoundTrip: a registered experiment is found by
// Lookup and appears (in order) in List and Names.
func TestRegisterLookupListRoundTrip(t *testing.T) {
	const name = "test-roundtrip"
	if err := Register(dummyExperiment(name)); err != nil {
		t.Fatal(err)
	}
	e, ok := Lookup(name)
	if !ok || e.Name != name {
		t.Fatalf("Lookup(%q) = %v, %v", name, e, ok)
	}
	res, err := e.Run(context.Background(), RunConfig{})
	if err != nil || res.Name != name {
		t.Fatalf("Run = %v, %v", res, err)
	}
	list := List()
	if len(list) == 0 || list[len(list)-1] != e {
		t.Fatalf("List() does not end with %q", name)
	}
}

// TestRegisterRejectsDuplicatesAndInvalid: duplicate names, empty names,
// nil experiments, and missing Run functions are all rejected.
func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	const name = "test-duplicate"
	if err := Register(dummyExperiment(name)); err != nil {
		t.Fatal(err)
	}
	if err := Register(dummyExperiment(name)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := Register(nil); err == nil {
		t.Fatal("nil experiment accepted")
	}
	if err := Register(dummyExperiment("")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(&Experiment{Name: "test-no-run"}); err == nil {
		t.Fatal("experiment without Run accepted")
	}
}

// TestLookupMiss: unknown names miss, and the canonical error wraps
// ErrNotFound.
func TestLookupMiss(t *testing.T) {
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Fatal("Lookup hit for unregistered name")
	}
	if !errors.Is(ErrUnknownExperiment("no-such-experiment"), ErrNotFound) {
		t.Fatal("ErrUnknownExperiment does not wrap ErrNotFound")
	}
}

// TestCatalogCoversLegacyDrivers: every experiment previously hard-wired
// into cmd/experiments is reachable through the registry (acceptance
// criterion of the registry redesign).
func TestCatalogCoversLegacyDrivers(t *testing.T) {
	want := []string{
		"landscape-figures",
		"hierarchical35-k2", "hierarchical35-k3",
		"weighted25-d5", "weighted25-d6", "weighted25-d5k3",
		"weighted35-d7", "weighted35-d9",
		"weightaug-k2", "weightaug-k3",
		"twocoloring-gap",
		"copyfraction-d5", "copyfraction-d7",
		"density-poly", "density-logstar",
		"pathlcl-classify",
		"survivors",
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("catalog missing %q", name)
			continue
		}
		if e.Run == nil || e.Description == "" || e.Theory == "" {
			t.Errorf("%q incompletely registered: %+v", name, e)
		}
		if e.Presets != nil {
			for _, p := range []string{PresetQuick, PresetStandard, PresetStress} {
				if _, ok := e.Presets[p]; !ok {
					t.Errorf("%q missing preset %q", name, p)
				}
			}
		}
	}
}

// TestUnknownPresetRejected: a bad preset name is an error, not a silent
// fallback.
func TestUnknownPresetRejected(t *testing.T) {
	e, ok := Lookup("twocoloring-gap")
	if !ok {
		t.Fatal("twocoloring-gap not registered")
	}
	if _, err := e.Run(context.Background(), RunConfig{Preset: "enormous"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestRunQuickProducesTables runs one cheap sweep experiment and one
// table-only experiment end to end through the registry.
func TestRunQuickProducesTables(t *testing.T) {
	for _, name := range []string{"twocoloring-gap", "survivors", "landscape-figures"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		res, err := e.Run(context.Background(), RunConfig{Preset: PresetQuick})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Fatalf("%s: empty tables", name)
		}
		if res.Name != name {
			t.Fatalf("%s: result name %q", name, res.Name)
		}
	}
}

// TestSizesOverrideWins: RunConfig.Sizes beats the preset sweep.
func TestSizesOverrideWins(t *testing.T) {
	e, _ := Lookup("twocoloring-gap")
	res, err := e.Run(context.Background(), RunConfig{Sizes: []int{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sweep rows + 2 fit annotation rows.
	if got := len(res.Tables[0].Rows); got != 4 {
		t.Fatalf("got %d rows, want 4", got)
	}
}

// TestSequentialParallelIdenticalResults: the acceptance criterion that
// sequential and parallel executions produce identical node-averaged results
// for identical seeds, checked through the registry API.
func TestSequentialParallelIdenticalResults(t *testing.T) {
	e, ok := Lookup("twocoloring-gap")
	if !ok {
		t.Fatal("twocoloring-gap not registered")
	}
	run := func(parallelism int) *Result {
		res, err := e.Run(context.Background(), RunConfig{
			Preset:      PresetQuick,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return res
	}
	seq := run(1)
	for _, p := range []int{4, -1} { // -1 = GOMAXPROCS
		par := run(p)
		if len(seq.Tables) != len(par.Tables) {
			t.Fatalf("table count differs at parallelism=%d", p)
		}
		for i := range seq.Tables {
			a, b := seq.Tables[i], par.Tables[i]
			if a.Format() != b.Format() {
				t.Fatalf("parallelism=%d table %d differs:\n%s\nvs\n%s",
					p, i, a.Format(), b.Format())
			}
		}
		if seq.Fit.Slope != par.Fit.Slope {
			t.Fatalf("parallelism=%d slope %v != %v", p, par.Fit.Slope, seq.Fit.Slope)
		}
	}
}

// TestRunCancellation: a canceled context aborts a sweep with an error
// wrapping context.Canceled.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"twocoloring-gap", "hierarchical35-k2", "survivors"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		if _, err := e.Run(ctx, RunConfig{Preset: PresetQuick}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want wrapped context.Canceled", name, err)
		}
	}
}

// TestSweepResultFitAnnotations pins the fit rows a scaling sweep's assembly
// appends after its point rows: fitted, theory, and theory upper (since the
// upper exponent differs).
func TestSweepResultFitAnnotations(t *testing.T) {
	s := &sweepSpec{
		header:    []string{"n", "y", "", ""},
		title:     "title",
		xName:     "n",
		summarize: fitted(0.5, 0.75),
	}
	points := []sweepPoint{
		{pt: measure.Point{X: 10, Y: 10}, row: []any{10, 10, "", ""}},
		{pt: measure.Point{X: 100, Y: 100}, row: []any{100, 100, "", ""}},
	}
	var res Result
	if err := s.assemble(&res, []int{10, 100}, points); err != nil {
		t.Fatal(err)
	}
	if res.Fit.Slope < 0.99 || res.Fit.Slope > 1.01 {
		t.Fatalf("slope %v, want 1", res.Fit.Slope)
	}
	if len(res.Tables) != 1 || res.Tables[0].Title != "title" {
		t.Fatalf("tables %+v, want the one titled points table", res.Tables)
	}
	annotations := res.Tables[0].Rows[len(points):]
	if len(annotations) != 3 {
		t.Fatalf("got %d annotation rows, want 3", len(annotations))
	}
	for i, want := range []string{"fitted exponent vs n", "theory exponent", "theory upper exponent"} {
		if annotations[i][0] != want {
			t.Fatalf("annotation row %d is %q, want %q", i, annotations[i][0], want)
		}
	}
}
