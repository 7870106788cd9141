package serve

import (
	"net/url"
	"slices"
	"testing"
)

// FuzzParseRunConfig feeds raw query strings, parsed the way a request's
// URL.Query() parses them, to parseRunConfig. It must never panic, and a
// config it accepts must come from runParams keys only, keep parallel and
// shards in [-1, maxConcurrency] and carry a non-negative timeout. The
// seed corpus is under testdata/fuzz/FuzzParseRunConfig.
func FuzzParseRunConfig(f *testing.F) {
	f.Add("preset=quick&seed=7&parallel=2&shards=-1&timeout=30s")
	f.Add("shards=100000")
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		cfg, timeout, err := parseRunConfig(q)
		if err != nil {
			return
		}
		for k := range q {
			if !slices.Contains(runParams, k) {
				t.Fatalf("%q: accepted unknown parameter %q", raw, k)
			}
		}
		if cfg.Parallelism < -1 || cfg.Parallelism > maxConcurrency || cfg.Shards < -1 || cfg.Shards > maxConcurrency {
			t.Fatalf("%q: accepted parallel %d, shards %d outside [-1, %d]", raw, cfg.Parallelism, cfg.Shards, maxConcurrency)
		}
		if timeout < 0 {
			t.Fatalf("%q: accepted timeout %v", raw, timeout)
		}
	})
}
