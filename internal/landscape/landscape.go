// Package landscape implements the complexity-landscape mathematics of the
// paper: the optimal exponents α_1(x) for the weighted problems in the
// polynomial regime (Lemma 33) and the log* regime (Lemma 36), the
// efficiency factors x = log(Δ−d−1)/log(Δ−1) and x′ = log(Δ−d+1)/log(Δ−1),
// the parameter searches behind the density theorems (Theorem 1 via
// Lemma 58, Theorem 6 via Lemma 62), and the landscape tables of Figures 1
// and 2.
package landscape

import (
	"errors"
	"fmt"
	"math"
)

// Regime distinguishes the two density regions of the landscape.
type Regime uint8

// The two regimes in which the paper proves infinite density.
const (
	RegimePolynomial Regime = iota + 1 // node-averaged complexity Θ(n^c)
	RegimeLogStar                      // node-averaged complexity ~ (log* n)^c
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimePolynomial:
		return "polynomial"
	case RegimeLogStar:
		return "log*"
	default:
		return fmt.Sprintf("Regime(%d)", uint8(r))
	}
}

// ErrBadParam indicates invalid landscape parameters.
var ErrBadParam = errors.New("invalid landscape parameter")

// EfficiencyX returns x = log(Δ−d−1)/log(Δ−1), the weight-efficiency factor
// of Lemma 23 (lower bounds and the polynomial-regime upper bound).
func EfficiencyX(delta, d int) (float64, error) {
	if err := checkDeltaD(delta, d); err != nil {
		return 0, err
	}
	return math.Log(float64(delta-d-1)) / math.Log(float64(delta-1)), nil
}

// EfficiencyXPrime returns x′ = log(Δ−d+1)/log(Δ−1), the slightly worse
// efficiency factor achieved by the log*-regime upper bound (Theorem 5).
func EfficiencyXPrime(delta, d int) (float64, error) {
	if err := checkDeltaD(delta, d); err != nil {
		return 0, err
	}
	return math.Log(float64(delta-d+1)) / math.Log(float64(delta-1)), nil
}

func checkDeltaD(delta, d int) error {
	if d < 1 {
		return fmt.Errorf("%w: d = %d < 1", ErrBadParam, d)
	}
	if delta < d+3 {
		return fmt.Errorf("%w: Δ = %d < d+3 = %d", ErrBadParam, delta, d+3)
	}
	return nil
}

// Alpha1Poly returns α_1(x) = 1 / Σ_{j=0}^{k-1} (2−x)^j, the optimal
// polynomial-regime exponent (Lemma 33): Π^{2.5}_{Δ,d,k} has node-averaged
// complexity Θ(n^{α_1(x)}).
func Alpha1Poly(x float64, k int) (float64, error) {
	if err := checkXK(x, k); err != nil {
		return 0, err
	}
	sum := 0.0
	pow := 1.0
	for j := 0; j < k; j++ {
		sum += pow
		pow *= 2 - x
	}
	return 1 / sum, nil
}

// Alpha1LogStar returns α_1(x) = 1 / (1 + (1−x) Σ_{j=0}^{k-2} (2−x)^j), the
// optimal log*-regime exponent (Lemma 36): Π^{3.5}_{Δ,d,k} has node-averaged
// complexity between Ω((log* n)^{α_1(x)}) and O((log* n)^{α_1(x′)}).
func Alpha1LogStar(x float64, k int) (float64, error) {
	if err := checkXK(x, k); err != nil {
		return 0, err
	}
	sum := 0.0
	pow := 1.0
	for j := 0; j <= k-2; j++ {
		sum += pow
		pow *= 2 - x
	}
	return 1 / (1 + (1-x)*sum), nil
}

func checkXK(x float64, k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k = %d < 1", ErrBadParam, k)
	}
	if x < 0 || x > 1 {
		return fmt.Errorf("%w: x = %v outside [0,1]", ErrBadParam, x)
	}
	return nil
}

// Alphas returns the optimal per-level exponents α_1..α_{k-1} of the
// optimisation problems in Sections 6.1/6.2: α_1 = Alpha1(x,k) (per regime)
// and α_i = (2−x)·α_{i−1} (Lemmas 33 and 36 share the recurrence).
func Alphas(regime Regime, x float64, k int) ([]float64, error) {
	var a1 float64
	var err error
	switch regime {
	case RegimePolynomial:
		a1, err = Alpha1Poly(x, k)
	case RegimeLogStar:
		a1, err = Alpha1LogStar(x, k)
	default:
		return nil, fmt.Errorf("%w: regime %v", ErrBadParam, regime)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, k-1)
	cur := a1
	for i := 0; i < k-1; i++ {
		out[i] = cur
		cur *= 2 - x
	}
	return out, nil
}

// InverseAlpha1 computes x = α_1^{-1}(target) for the given regime and k by
// bisection; α_1 is continuous and strictly increasing on [0,1]
// (Lemmas 57/61), so the inverse is well defined for targets in
// [α_1(0), α_1(1)] = [1/(2^k−1), 1/k].
func InverseAlpha1(regime Regime, target float64, k int) (float64, error) {
	f := func(x float64) float64 {
		var v float64
		switch regime {
		case RegimePolynomial:
			v, _ = Alpha1Poly(x, k)
		default:
			v, _ = Alpha1LogStar(x, k)
		}
		return v
	}
	lo, hi := 0.0, 1.0
	if target < f(lo)-1e-12 || target > f(hi)+1e-12 {
		return 0, fmt.Errorf("%w: target %v outside [%v, %v] for k=%d",
			ErrBadParam, target, f(lo), f(hi), k)
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
