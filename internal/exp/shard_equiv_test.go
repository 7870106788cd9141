package exp

// The sharded-execution acceptance tests: canonical result JSON must be
// byte-identical between the sequential engine and WithShards(k) for k in
// {1, 2, 4, 7} — across the whole catalog at the quick preset and across
// every preset of the simulator-backed experiment. Sharded runs use the
// engine's default layout; the sim tests check each layout against the
// other. CI repeats the check end-to-end by cmp-ing `cmd/experiments
// -shards` output against the serial run (see .github/workflows/ci.yml).

import (
	"context"
	"encoding/json"
	"testing"
)

// shardCounts are the acceptance shard counts.
var shardCounts = []int{1, 2, 4, 7}

// canonicalBytes marshals the canonical (elapsed- and mechanics-stripped)
// form of a result.
func canonicalBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	raw, err := json.Marshal(Canonical(res))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedCanonicalBytesCatalogWide runs every catalog experiment at the
// quick preset under each acceptance shard count and asserts the canonical
// JSON matches the unsharded run byte for byte. Analytic experiments ignore
// the knob; the simulator-backed ones must reproduce exactly.
func TestShardedCanonicalBytesCatalogWide(t *testing.T) {
	for _, e := range catalogExperiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			base, err := e.Run(context.Background(), RunConfig{Preset: PresetQuick})
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalBytes(t, base)
			for _, k := range shardCounts {
				res, err := e.Run(context.Background(), RunConfig{Preset: PresetQuick, Shards: k})
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := canonicalBytes(t, res); string(got) != string(want) {
					t.Fatalf("shards=%d: canonical JSON diverges from sequential\n got: %s\nwant: %s", k, got, want)
				}
			}
		})
	}
}

// TestShardedCanonicalBytesEveryPreset covers every preset of the
// simulator-backed experiment (the one whose execution actually flows
// through the sharded engine): for each preset and each acceptance shard
// count, canonical JSON must match the sequential run byte for byte. The
// stress preset is skipped under -short and under the race detector (it is
// the one long sweep; quick and standard already pin the contract).
func TestShardedCanonicalBytesEveryPreset(t *testing.T) {
	e, ok := Lookup("twocoloring-gap")
	if !ok {
		t.Fatal("twocoloring-gap not registered")
	}
	for _, preset := range []string{PresetQuick, PresetStandard, PresetStress} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			if preset == PresetStress && (testing.Short() || raceEnabled) {
				t.Skip("stress sweep skipped under -short and -race")
			}
			t.Parallel()
			base, err := e.Run(context.Background(), RunConfig{Preset: preset})
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalBytes(t, base)
			for _, k := range shardCounts {
				res, err := e.Run(context.Background(), RunConfig{Preset: preset, Shards: k})
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := canonicalBytes(t, res); string(got) != string(want) {
					t.Fatalf("shards=%d: canonical JSON diverges from sequential", k)
				}
			}
		})
	}
}

// TestShardedBatchMatchesSerial: the task scheduler composes with sharding —
// a -jobs style batch run with Shards set must still reassemble the exact
// canonical aggregate of the serial unsharded run.
func TestShardedBatchMatchesSerial(t *testing.T) {
	exps := catalogExperiments()
	serial, err := RunBatch(context.Background(), exps, BatchOptions{
		Jobs: 1, Config: RunConfig{Preset: PresetQuick},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunBatch(context.Background(), exps, BatchOptions{
		Jobs: 4, Config: RunConfig{Preset: PresetQuick, Shards: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(sharded) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(sharded))
	}
	for i := range serial {
		a := canonicalBytes(t, serial[i])
		b := canonicalBytes(t, sharded[i])
		if string(a) != string(b) {
			t.Fatalf("%s: sharded batch diverges from serial", serial[i].Name)
		}
	}
}
