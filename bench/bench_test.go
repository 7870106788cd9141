package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: workload
// runs and set-up probes re-exec os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--workload" {
		os.Exit(benchMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs each workload for one second, untraced and
// traced, and checks that every declared metric is reported with its
// declared unit and that nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run, err := runChild(w.name, 1, 1, "0")
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, run)
			for _, m := range endToEnd {
				got, ok := run.result.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			if len(run.result.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(run.result.Metrics), len(endToEnd))
			}

			traced, err := runChild(w.name, 1, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced)
			layers := layerMetrics()
			for _, m := range layers {
				if got, ok := traced.result.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.name, got, m.unit)
				}
			}
			if len(traced.result.Metrics) != len(layers) {
				t.Errorf("%d per-layer metrics, want %d", len(traced.result.Metrics), len(layers))
			}
			if traced.result.Metrics["trace.spans"].Value == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func checkRun(t *testing.T, run *childRun) {
	t.Helper()
	r := run.result
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct %t, attempted %d, failed %d; want every op correct", r.Correct, r.Attempted, r.Failed)
	}
}

// TestSpecMatchesDeclarations lints ../BENCHMARK.json against the limits
// the benchmark must keep and against this package's declarations.
func TestSpecMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
	var s struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if !slices.Equal(s.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", s.Paths)
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings", len(s.Command))
	}
	for _, arg := range s.Command[1:] {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command argument %q names a file outside bench/", arg)
		}
	}
	if s.RunSeconds != math.Trunc(s.RunSeconds) || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %v, want a whole number from 1 to 60", s.RunSeconds)
	}

	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var wnames []string
	for _, w := range s.Workloads {
		checkName("workload", w.Name)
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var declared []string
	for _, w := range workloads {
		declared = append(declared, w.name)
	}
	if !slices.Equal(wnames, declared) {
		t.Errorf("workloads %v, declared in code %v", wnames, declared)
	}

	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	e2e := make(map[string]bool)
	maxBound, setupBound := 0.0, -1.0
	for i, m := range s.EndToEnd {
		checkName("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q, better %q; want s, lower", m.Unit, m.Better)
			}
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end %d is %s (%s), not as declared in metrics.go", i, m.Name, m.Unit)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, metrics.go declares %d", len(s.EndToEnd), len(endToEnd))
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest bound %v", setupBound, maxBound)
	}

	layers := layerMetrics()
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(s.PerLayer) != len(layers) {
		t.Errorf("%d per-layer metrics, metrics.go declares %d", len(s.PerLayer), len(layers))
	}
	for i, m := range s.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(layers) && (layers[i].name != m.Name || layers[i].unit != m.Unit || layers[i].better != m.Better) {
			t.Errorf("per-layer %d is %+v, metrics.go declares %+v", i, m, layers[i])
		}
	}
	for _, l := range layers {
		for _, mv := range l.moves {
			if !e2e[mv.metric] || !slices.Contains(wnames, mv.workload) {
				t.Errorf("%s moves %s on %s: not a declared end-to-end metric and workload", l.name, mv.metric, mv.workload)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	base := samples{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	scale := func(s samples, f float64) samples {
		out := make(samples, len(s))
		for i, v := range s {
			out[i] = v * f
		}
		return out
	}
	wide := samples{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name     string
		old, new samples
		better   string
		want     string
		wantWins int
	}{
		{"faster", base, scale(base, 0.8), "lower", "improved", 10},
		{"higher is better", base, scale(base, 1.2), "higher", "improved", 10},
		{"slower past the bound", base, scale(base, 1.2), "lower", "regressed", 0},
		{"within the bound", base, scale(base, 1.05), "lower", "unchanged", 0},
		{"ties count for neither side", base, base, "lower", "unchanged", 0},
		{"spread wider than the bound", wide, samples{100, 110, 90, 130, 70, 100, 120, 80, 140, 60}, "lower", "unresolved", 5},
		{"fewer than 10 pairs", base[:5], scale(base[:5], 0.8), "lower", "unchanged", 5},
		// 8 wins of 10 is not enough for a claim.
		{"eight of ten", base, samples{90, 91, 92, 93, 94, 95, 96, 97, 110, 111}, "lower", "unchanged", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, wins := judge(tc.old, tc.new, tc.better, 0.1)
			if got != tc.want || wins != tc.wantWins {
				t.Errorf("judge = %s with %d wins, want %s with %d", got, wins, tc.want, tc.wantWins)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   samples
		want [3]float64
	}{
		{samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{samples{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{samples{7, 7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := tc.in.quartiles()
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	const msec = 1e6
	spans := []span{
		{ID: 1, Start: 0, End: 100 * msec},
		{ID: 2, Parent: 1, Start: 10 * msec, End: 30 * msec},
		{ID: 3, Parent: 1, Start: 20 * msec, End: 50 * msec}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60 * msec, End: 70 * msec},
		{ID: 5, Parent: 4, Start: 65 * msec, End: 120 * msec}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]float64{1: 50, 2: 20, 3: 30, 4: 5, 5: 55} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v ms, want %v", id, self[id], want)
		}
	}
}
