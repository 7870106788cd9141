package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/inst"
)

// TestVerifiedColors checks the coloring gate that the Linial ensembles and
// twocoloring-gap share: a proper coloring passes through, while one
// corrupted label or one output that is not an int64 is rejected with the
// offending edge or node named.
func TestVerifiedColors(t *testing.T) {
	tr, err := graph.BuildPath(5)
	if err != nil {
		t.Fatal(err)
	}
	proper := []any{int64(0), int64(1), int64(0), int64(1), int64(0)}
	colors, err := verifiedColors(tr, proper)
	if err != nil {
		t.Fatalf("proper coloring rejected: %v", err)
	}
	for v, c := range colors {
		if c != proper[v] {
			t.Fatalf("color %d = %d, want %v", v, c, proper[v])
		}
	}
	for _, tc := range []struct {
		name    string
		outputs []any
		want    string
	}{
		{"corrupted-label", []any{int64(0), int64(1), int64(1), int64(1), int64(0)}, "improper coloring on edge {1,2}"},
		{"not-int64", []any{int64(0), int64(1), 0, int64(1), int64(0)}, "node 2 output is int, not a color"},
	} {
		if _, err := verifiedColors(tr, tc.outputs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestEnsembleSamplesLeaveNoCacheEntries: every ensemble task draws a fresh
// seed, so its sample is built per request and never cached. Twenty runs of
// the quick GW ensemble at fresh seeds build 20 × 4 samples and leave the
// shared instance cache no galtonwatson entry.
func TestEnsembleSamplesLeaveNoCacheEntries(t *testing.T) {
	e, ok := Lookup("ensemble-gw-linial")
	if !ok {
		t.Fatal("ensemble-gw-linial not registered")
	}
	before := InstanceCache().Stats()
	for i := 0; i < 20; i++ {
		cfg := RunConfig{Preset: PresetQuick, Seed: uint64(9000 + i)}
		if _, err := RunBatch(context.Background(), []*Experiment{e}, BatchOptions{Jobs: 1, Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	after := InstanceCache().Stats()
	gw := after.Kinds[inst.KindGW]
	if d := gw.Builds - before.Kinds[inst.KindGW].Builds; d != 80 {
		t.Fatalf("%d galtonwatson builds, want 80", d)
	}
	if gw.Entries != 0 || gw.Nodes != 0 {
		t.Fatalf("galtonwatson occupancy %d entries / %d nodes, want 0/0", gw.Entries, gw.Nodes)
	}
	if after.Entries != before.Entries || after.Nodes != before.Nodes {
		t.Fatalf("cache grew from %d entries / %d nodes to %d / %d",
			before.Entries, before.Nodes, after.Entries, after.Nodes)
	}
}
