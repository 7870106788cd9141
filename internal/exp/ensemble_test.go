package exp

import (
	"strings"
	"testing"

	"repro/internal/graph"
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
