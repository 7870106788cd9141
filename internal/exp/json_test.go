package exp

import (
	"context"
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestResultJSONSchema pins the documented JSON field names of the result
// schema (README "JSON output schema"): a sharded simulator-backed run
// carries exactly these keys, its shard traffic among them.
func TestResultJSONSchema(t *testing.T) {
	e, ok := Lookup("twocoloring-gap")
	if !ok {
		t.Fatal("twocoloring-gap not registered")
	}
	res, err := e.Run(context.Background(), RunConfig{Preset: PresetQuick, Parallelism: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != SchemaVersion {
		t.Fatalf("result schema = %d, want %d", res.Schema, SchemaVersion)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := "elapsed_ms fit name parallelism preset schema seed shard_traffic shards sizes steps tables theory"
	if got := strings.Join(slices.Sorted(maps.Keys(m)), " "); got != want {
		t.Errorf("result JSON keys = %s, want %s", got, want)
	}
	if res.ShardTraffic == nil || res.ShardTraffic.BoundaryEdges <= 0 {
		t.Errorf("sharded run reported shard traffic %+v, want boundary edges > 0", res.ShardTraffic)
	}
	tables, ok := m["tables"].([]any)
	if !ok || len(tables) == 0 {
		t.Fatal("tables not a non-empty array")
	}
	tb := tables[0].(map[string]any)
	for _, key := range []string{"title", "header", "rows"} {
		if _, ok := tb[key]; !ok {
			t.Errorf("table JSON missing key %q", key)
		}
	}
	fit, ok := m["fit"].(map[string]any)
	if !ok {
		t.Fatal("fit not an object")
	}
	for _, key := range []string{"slope", "theory_slope", "points"} {
		if _, ok := fit[key]; !ok {
			t.Errorf("fit JSON missing key %q", key)
		}
	}
	// The decoded result must round-trip.
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != res.Name || len(back.Tables) != len(res.Tables) {
		t.Fatal("JSON round-trip lost data")
	}
}
