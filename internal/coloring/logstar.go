// Package coloring implements the distributed symmetry-breaking primitives
// the paper's algorithms rely on: Linial-style iterated color reduction
// (3-coloring paths, and more generally (Δ+1)-coloring bounded-degree trees,
// in O(log* n) rounds, [Lin92]) and 2-coloring of paths by propagation in
// Θ(n) rounds. Both are implemented as honest LOCAL machines for package sim
// and as reusable sub-machines for the composite algorithms of the paper.
package coloring

// IsPrime reports whether p is prime (trial division; used only on tiny
// palette parameters).
func IsPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime strictly greater than x.
func NextPrime(x int) int {
	p := x + 1
	for !IsPrime(p) {
		p++
	}
	return p
}
