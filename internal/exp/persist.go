package exp

// Persistence and regression comparison: canonical result files written by
// cmd/experiments -out, loadable and diffable so a stored run doubles as a
// regression baseline for a later one.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/measure"
)

// Canonical returns a copy of res with the volatile and execution-mechanics
// fields zeroed: ElapsedMS is wall-clock and differs run to run, and
// Parallelism, Shards, Steps, and ShardTraffic describe how the run was
// scheduled and how much simulator work and cross-shard traffic it
// performed, not what it computed (results are identical at every
// setting). Two runs of the same experiment at the same preset and seed
// therefore marshal to identical bytes regardless of -jobs, -parallel, or
// -shards.
func Canonical(res *Result) *Result {
	c := *res
	c.ElapsedMS = 0
	c.Parallelism = 0
	c.Shards = 0
	c.Steps = 0
	c.ShardTraffic = nil
	return &c
}

// ResultKey identifies a persisted run: experiment + preset + seed. It is
// the per-result file stem of WriteResults, the join key of Compare, and the
// memoization key of the expd result store (internal/serve). Parallelism and
// shards are deliberately absent: they are execution mechanics that the
// canonical form strips, so runs differing only in scheduling share a key.
func ResultKey(res *Result) string {
	return resultKey(res.Name, res.Preset, res.Seed)
}

func resultKey(name, preset string, seed uint64) string {
	return fmt.Sprintf("%s__%s__seed%d", name, preset, seed)
}

// ResultKeyFor returns the ResultKey a run of e under cfg will persist as,
// resolving the preset default ("" means standard) and the seed default
// (0 means the experiment's DefaultSeed) exactly the way Run stamps them
// into the Result. It fails on a preset the experiment does not declare, so
// a caller can reject a request before computing anything. The key is
// independent of cfg.Parallelism and cfg.Shards, matching Canonical.
func (e *Experiment) ResultKeyFor(cfg RunConfig) (string, error) {
	_, preset, err := e.sizesFor(cfg)
	if err != nil {
		return "", err
	}
	return resultKey(e.Name, preset, e.seedFor(cfg)), nil
}

// CanonicalJSON renders res exactly as WriteResults persists it in a
// directory result set: the canonical (elapsed- and mechanics-stripped)
// form, two-space indented, newline terminated. It is the byte contract of
// the expd result store — a served response must be byte-identical to the
// file cmd/experiments -out writes for the same ResultKey.
func CanonicalJSON(res *Result) ([]byte, error) {
	raw, err := json.MarshalIndent(Canonical(res), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// WriteResults persists results in canonical form. A path ending in ".json"
// receives the whole batch as one indented JSON array; any other path is
// created as a directory holding one "<name>__<preset>__seed<S>.json" file
// per result. Both forms are deterministic byte-for-byte for deterministic
// results, so they diff cleanly under version control.
func WriteResults(path string, results []*Result) error {
	canon := make([]*Result, len(results))
	for i, res := range results {
		if res == nil {
			return fmt.Errorf("exp: WriteResults: nil result at position %d", i)
		}
		canon[i] = Canonical(res)
	}
	if strings.HasSuffix(path, ".json") {
		raw, err := json.MarshalIndent(canon, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	// The directory is the result set: drop stale .json files from earlier
	// writes so a reused -out dir never feeds phantom runs into Compare.
	existing, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range existing {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			if err := os.Remove(filepath.Join(path, e.Name())); err != nil {
				return err
			}
		}
	}
	for _, res := range canon {
		raw, err := CanonicalJSON(res)
		if err != nil {
			return err
		}
		file := filepath.Join(path, ResultKey(res)+".json")
		if err := os.WriteFile(file, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadResults reads a result set written by WriteResults: either a single
// .json file holding an array (or one object), or a directory of per-result
// .json files.
func LoadResults(path string) ([]*Result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return loadResultFile(path)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		part, err := loadResultFile(filepath.Join(path, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exp: no result files in %s", path)
	}
	return out, nil
}

func loadResultFile(file string) ([]*Result, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var many []*Result
	if err := json.Unmarshal(raw, &many); err == nil {
		// WriteResults never writes a null entry; one would reach every
		// caller as a nil *Result.
		for i, res := range many {
			if res == nil {
				return nil, fmt.Errorf("exp: %s: result %d is null", file, i)
			}
		}
		return many, nil
	}
	var one Result
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, fmt.Errorf("exp: %s: neither a result array nor a result object: %w", file, err)
	}
	return []*Result{&one}, nil
}

// Drift is one divergence found by Compare.
type Drift struct {
	// Key is the ResultKey of the affected run.
	Key string `json:"key"`
	// Field names what diverged: "slope", "theory_slope", "tables",
	// "missing" (in new), or "extra" (not in old).
	Field string `json:"field"`
	// Old and New are the compared values where numeric (slope fields).
	Old float64 `json:"old,omitempty"`
	New float64 `json:"new,omitempty"`
	// Detail is the human-readable description.
	Detail string `json:"detail"`
}

// Compare diffs two result sets, joined on ResultKey, and returns every
// drift found: fitted slopes moving more than tol, theory slopes changing
// at all (they are analytic constants), table counts changing, runs
// present on only one side, and — for results without a fit — any change
// to the table content itself (fit-less tables are analytic or discrete:
// survivor counts, density witnesses, figures, classifications; they must
// reproduce exactly, while measured sweep tables get the slope tolerance).
// An empty return means the new set reproduces the old within tolerance.
func Compare(base, cur []*Result, tol float64) []Drift {
	index := func(rs []*Result) map[string]*Result {
		m := make(map[string]*Result, len(rs))
		for _, r := range rs {
			if r != nil {
				m[ResultKey(r)] = r
			}
		}
		return m
	}
	oldBy, newBy := index(base), index(cur)
	keys := make([]string, 0, len(oldBy)+len(newBy))
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, ok := oldBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var drifts []Drift
	for _, k := range keys {
		o, haveOld := oldBy[k]
		n, haveNew := newBy[k]
		switch {
		case !haveNew:
			drifts = append(drifts, Drift{Key: k, Field: "missing",
				Detail: "run present in old set but missing from new"})
			continue
		case !haveOld:
			drifts = append(drifts, Drift{Key: k, Field: "extra",
				Detail: "run present in new set but not in old"})
			continue
		}
		if (o.Fit == nil) != (n.Fit == nil) {
			drifts = append(drifts, Drift{Key: k, Field: "tables",
				Detail: "fit section appeared or disappeared"})
			continue
		}
		if o.Fit != nil {
			if d := math.Abs(n.Fit.Slope - o.Fit.Slope); d > tol {
				drifts = append(drifts, Drift{Key: k, Field: "slope",
					Old: o.Fit.Slope, New: n.Fit.Slope,
					Detail: fmt.Sprintf("fitted slope drifted %.4g > tol %.4g", d, tol)})
			}
			if o.Fit.TheorySlope != n.Fit.TheorySlope {
				drifts = append(drifts, Drift{Key: k, Field: "theory_slope",
					Old: o.Fit.TheorySlope, New: n.Fit.TheorySlope,
					Detail: "theory slope changed (analytic constant)"})
			}
		}
		if len(o.Tables) != len(n.Tables) {
			drifts = append(drifts, Drift{Key: k, Field: "tables",
				Old: float64(len(o.Tables)), New: float64(len(n.Tables)),
				Detail: fmt.Sprintf("table count changed %d -> %d", len(o.Tables), len(n.Tables))})
			continue
		}
		if o.Fit == nil {
			if detail, same := tablesEqual(o.Tables, n.Tables); !same {
				drifts = append(drifts, Drift{Key: k, Field: "tables", Detail: detail})
			}
		}
	}
	return drifts
}

// tablesEqual deep-compares two table slices of equal length, returning a
// description of the first divergence.
func tablesEqual(a, b []measure.Table) (string, bool) {
	for i := range a {
		if a[i].Title != b[i].Title {
			return fmt.Sprintf("table %d title changed %q -> %q", i, a[i].Title, b[i].Title), false
		}
		if !reflect.DeepEqual(a[i].Header, b[i].Header) {
			return fmt.Sprintf("table %d header changed", i), false
		}
		if len(a[i].Rows) != len(b[i].Rows) {
			return fmt.Sprintf("table %d row count changed %d -> %d", i, len(a[i].Rows), len(b[i].Rows)), false
		}
		for r := range a[i].Rows {
			if !reflect.DeepEqual(a[i].Rows[r], b[i].Rows[r]) {
				return fmt.Sprintf("table %d row %d changed %v -> %v", i, r, a[i].Rows[r], b[i].Rows[r]), false
			}
		}
	}
	return "", true
}
