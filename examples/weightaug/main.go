// Weightaug: the Θ(√n) point of the landscape (Section 10). Builds the
// weight-augmented 2½-coloring instance for k = 2, solves it (Lemma 69's
// algorithm), and shows that the node-averaged complexity tracks √n while
// almost the entire weight mass waits for its active node (Lemma 68:
// efficiency x = 1).
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/labeling"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "weightaug:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("n        node-avg   node-avg/√n   copying weight fraction")
	for _, target := range []int{4000, 16000, 64000} {
		side := int(math.Sqrt(float64(target) / 2))
		inst, err := labeling.BuildAugInstance(2, 5, []int{side, side}, target/2)
		if err != nil {
			return err
		}
		split, err := inst.Split()
		if err != nil {
			return err
		}
		ids := sim.DefaultIDs(inst.Tree.N(), 9)
		res, err := labeling.SolveAug(split, ids)
		if err != nil {
			return err
		}
		if err := labeling.VerifyAug(split, res.Out); err != nil {
			return err
		}
		weightTotal, copying := 0, 0
		for v := range res.Out {
			if !inst.Weight[v] {
				continue
			}
			weightTotal++
			if !res.Out[v].Secondary.Decline {
				copying++
			}
		}
		n := float64(inst.Tree.N())
		fmt.Printf("%-8d %-10.1f %-13.3f %.3f\n",
			inst.Tree.N(), res.NodeAveraged(), res.NodeAveraged()/math.Sqrt(n),
			float64(copying)/float64(weightTotal))
	}
	fmt.Println("\nnode-avg/√n is flat: the weight-augmented 2½-coloring sits exactly at Θ(√n).")
	return nil
}
