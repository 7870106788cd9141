// Quickstart: build a weighted lower-bound instance for Π^{2.5}_{Δ=5,d=2,k=2}
// (Definition 25), solve it with A_poly (Section 7.1), verify the output
// against Definition 22, and print the node-averaged complexity next to the
// theoretical exponent α1(x).
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/hierarchy"
	"repro/internal/landscape"
	"repro/internal/sim"
	"repro/internal/weighted"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: 2}

	// The efficiency factor x = log(Δ−d−1)/log(Δ−1) tunes how much of the
	// weight actually has to wait; here x = 1/2 and α1 = 1/(1+(2−x)) = 0.4.
	x, err := landscape.EfficiencyX(p.Delta, p.D)
	if err != nil {
		return err
	}
	alpha1, err := landscape.Alpha1Poly(x, p.K)
	if err != nil {
		return err
	}

	// Worst-case instance: level-1 paths of length n^{α1}, a level-2 path
	// filling the rest, and n/2 weight nodes hanging off the level-2 path in
	// balanced Δ-regular trees.
	const target = 60000
	l1 := int(math.Pow(target, alpha1))
	inst, err := weighted.BuildInstance(p, []int{l1, target / (2 * l1)}, target/2)
	if err != nil {
		return err
	}

	split, err := inst.Split()
	if err != nil {
		return err
	}
	ids := sim.DefaultIDs(inst.Tree.N(), 42)
	sol, err := weighted.SolvePoly(split, p, ids)
	if err != nil {
		return err
	}
	if err := p.Verify(split, sol.Out); err != nil {
		return err
	}

	n := float64(inst.Tree.N())
	fmt.Printf("Π^2.5_{Δ=%d,d=%d,k=%d} on the Definition-25 construction\n", p.Delta, p.D, p.K)
	fmt.Printf("  n                = %d\n", inst.Tree.N())
	fmt.Printf("  x                = %.4f\n", x)
	fmt.Printf("  α1(x)            = %.4f  (theory: node-avg = Θ(n^α1) ≈ %.1f)\n",
		alpha1, math.Pow(n, alpha1))
	fmt.Printf("  measured node-avg = %.1f rounds\n", sol.NodeAveraged())
	fmt.Printf("  measured worst    = %d rounds\n", sol.MaxRounds())
	kinds := map[weighted.Kind]int{}
	for _, o := range sol.Out {
		kinds[o.Kind]++
	}
	fmt.Printf("  outputs: %d active, %d copy, %d decline, %d connect\n",
		kinds[weighted.KindActive], kinds[weighted.KindCopy],
		kinds[weighted.KindDecline], kinds[weighted.KindConnect])
	return nil
}
