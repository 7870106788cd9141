package main

// bench ab OLD NEW: the interleaved A/B comparison of two bench binaries,
// each built with `go build -o X .` in this directory at one commit. Pairs
// alternate which side runs first, so a drift of the host (it has two CPU
// performance modes) lands on both sides alike.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the A/B verdict needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads the repository's BENCHMARK.json.
func loadSpec() (*spec, error) {
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func abMain(args []string) int {
	fs := flag.NewFlagSet("bench ab", flag.ContinueOnError)
	pairs := fs.Int("pairs", 10, "number of OLD/NEW pairs (at least 10 for a claim)")
	seconds := fs.Float64("seconds", 35, "measured seconds per run")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair i runs both sides at seed+i")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench ab [flags] OLD NEW")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 || *pairs < 1 {
		fs.Usage()
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench ab:", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	bins := [2]string{fs.Arg(0), fs.Arg(1)}
	// values[workload][metric][side] holds one value per pair.
	values := make(map[string]map[string]*[2]samples)
	code := 0
	for i := 0; i < *pairs; i++ {
		for _, w := range names {
			if values[w] == nil {
				values[w] = make(map[string]*[2]samples)
			}
			var got [2]*childRun
			for _, side := range [2]int{i % 2, 1 - i%2} {
				run, err := runBinary(bins[side], w, *seed+uint64(i), *seconds, "0")
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench ab: %s: %v\n", bins[side], err)
					return 1
				}
				if !run.result.Correct {
					fmt.Fprintf(os.Stderr, "bench ab: %s: %s: %d of %d ops failed\n", bins[side], w, run.result.Failed, run.result.Attempted)
					code = 1
				}
				got[side] = run
			}
			for _, m := range sp.EndToEnd {
				if values[w][m.Name] == nil {
					values[w][m.Name] = &[2]samples{}
				}
				for side := range got {
					v := values[w][m.Name]
					v[side] = append(v[side], got[side].result.Metrics[m.Name].Value)
				}
			}
		}
	}
	fmt.Printf("%-12s %-16s %-34s %-34s %-6s %s\n", "workload", "metric", "OLD median [q1, q3]", "NEW median [q1, q3]", "wins", "verdict")
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			v := values[w][m.Name]
			verdict, wins := judge(v[0], v[1], m.Better, m.Bound)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Printf("%-12s %-16s %-34s %-34s %-6s %s\n", w, m.Name, quartileText(v[0]), quartileText(v[1]),
				fmt.Sprintf("%d/%d", wins, len(v[0])), verdict)
		}
	}
	return code
}

func quartileText(s samples) string {
	q1, q2, q3 := s.quartiles()
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

// judge compares paired samples of one metric (old[i] and new[i] ran as
// pair i) and returns the verdict and how many pairs NEW won:
//
//   - improved: there are at least 10 pairs, NEW wins at least 9 of every
//     10 (ties count for neither side), and the medians differ, in NEW's
//     favour, by more than OLD's interquartile distance;
//   - unresolved: otherwise, when either side's spread (IQR / median) is
//     wider than the bound, unless every NEW run is better than every OLD
//     run;
//   - regressed: NEW's median is worse than OLD's by more than the bound
//     (a share of OLD's median);
//   - unchanged: none of the above.
func judge(old, new samples, better string, bound float64) (string, int) {
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	isBetter := func(a, b float64) bool { return (a-b)*sign < 0 }
	wins := 0
	for i := range old {
		if i < len(new) && isBetter(new[i], old[i]) {
			wins++
		}
	}
	oldMed, newMed := old.median(), new.median()
	q1, _, q3 := old.quartiles()
	if len(old) >= 10 && wins*10 >= 9*len(old) && isBetter(newMed, oldMed) && math.Abs(newMed-oldMed) > q3-q1 {
		return "improved", wins
	}
	allBetter := len(new) > 0
	for _, n := range new {
		for _, o := range old {
			if !isBetter(n, o) {
				allBetter = false
			}
		}
	}
	if (old.spread() > bound || new.spread() > bound) && !allBetter {
		return "unresolved", wins
	}
	if (newMed-oldMed)*sign > bound*math.Abs(oldMed) {
		return "regressed", wins
	}
	return "unchanged", wins
}
