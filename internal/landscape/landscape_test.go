package landscape

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEfficiencyFactors(t *testing.T) {
	// Δ=5, d=2: x = log2/log4 = 1/2.
	x, err := EfficiencyX(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x, 0.5, 1e-12) {
		t.Fatalf("x = %v, want 0.5", x)
	}
	// x' = log(Δ−d+1)/log(Δ−1) = log4/log4 = 1.
	xp, err := EfficiencyXPrime(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(xp, 1, 1e-12) {
		t.Fatalf("x' = %v, want 1", xp)
	}
}

func TestEfficiencyRejectsBadParams(t *testing.T) {
	if _, err := EfficiencyX(4, 2); err == nil { // Δ < d+3
		t.Error("Δ < d+3 accepted")
	}
	if _, err := EfficiencyX(5, 0); err == nil {
		t.Error("d = 0 accepted")
	}
}

func TestAlpha1PolyEndpoints(t *testing.T) {
	for k := 1; k <= 6; k++ {
		// α_1(0) = 1/(2^k − 1): the unweighted node-averaged complexity of
		// k-hierarchical 2½-coloring [BBK+23b].
		a0, err := Alpha1Poly(0, k)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a0, 1/(math.Pow(2, float64(k))-1), 1e-12) {
			t.Fatalf("k=%d: α1(0) = %v", k, a0)
		}
		// α_1(1) = 1/k: the worst-case complexity exponent.
		a1, err := Alpha1Poly(1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a1, 1/float64(k), 1e-12) {
			t.Fatalf("k=%d: α1(1) = %v", k, a1)
		}
	}
}

func TestAlpha1LogStarEndpoints(t *testing.T) {
	for k := 2; k <= 6; k++ {
		a0, err := Alpha1LogStar(0, k)
		if err != nil {
			t.Fatal(err)
		}
		// α_1(0) = 1/(1 + Σ_{j=0}^{k-2} 2^j) = 1/2^{k-1}... the paper's
		// Lemma 61 states α_1(0) = 1/(2^k − 1)? Evaluate the formula
		// directly: 1 + 1·(2^{k-1}−1) = 2^{k-1}.
		want := 1 / math.Pow(2, float64(k-1))
		if !almost(a0, want, 1e-12) {
			t.Fatalf("k=%d: α1(0) = %v, want %v", k, a0, want)
		}
		a1, err := Alpha1LogStar(1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a1, 1, 1e-12) {
			t.Fatalf("k=%d: α1(1) = %v, want 1", k, a1)
		}
	}
}

func TestAlpha1Monotone(t *testing.T) {
	// Lemmas 57 and 61: α_1 is continuous and strictly increasing on [0,1].
	for k := 2; k <= 5; k++ {
		for _, f := range []func(float64, int) (float64, error){Alpha1Poly, Alpha1LogStar} {
			prev := -1.0
			for x := 0.0; x <= 1.0001; x += 0.01 {
				v, err := f(math.Min(x, 1), k)
				if err != nil {
					t.Fatal(err)
				}
				if v <= prev {
					t.Fatalf("k=%d: α1 not strictly increasing at x=%v", k, x)
				}
				prev = v
			}
		}
	}
}

// exponents returns the k exponents B_1..B_k of the optimisation problem
// for the given α vector:
//
//	B_i = (x−1)·Σ_{j<i} α_j + α_i      (i < k)
//	B_k = 1 + c·Σ_{j<k} α_j
//
// with c = x−2 in the polynomial regime and c = x−1 in the log* regime
// (Section 6.2).
func exponents(alphas []float64, x, c float64) []float64 {
	k := len(alphas) + 1
	out := make([]float64, k)
	prefix := 0.0
	for i := 1; i < k; i++ {
		out[i-1] = (x-1)*prefix + alphas[i-1]
		prefix += alphas[i-1]
	}
	out[k-1] = 1 + c*prefix
	return out
}

func TestOptimalAlphasEqualizeExponents(t *testing.T) {
	// Lemma 33 / Lemma 36: at the optimum, B_1 = B_2 = ... = B_k = α_1.
	for _, k := range []int{2, 3, 4, 5} {
		for _, x := range []float64{0.1, 0.33, 0.5, 0.9} {
			aPoly, err := Alphas(RegimePolynomial, x, k)
			if err != nil {
				t.Fatal(err)
			}
			bPoly := exponents(aPoly, x, x-2)
			for i, b := range bPoly {
				if !almost(b, aPoly[0], 1e-9) {
					t.Fatalf("poly k=%d x=%v: B_%d = %v != α1 = %v", k, x, i+1, b, aPoly[0])
				}
			}
			aLS, err := Alphas(RegimeLogStar, x, k)
			if err != nil {
				t.Fatal(err)
			}
			bLS := exponents(aLS, x, x-1)
			for i, b := range bLS {
				if !almost(b, aLS[0], 1e-9) {
					t.Fatalf("log* k=%d x=%v: B_%d = %v != α1 = %v", k, x, i+1, b, aLS[0])
				}
			}
		}
	}
}

func TestAlphasRecurrence(t *testing.T) {
	// α_i = (2−x) α_{i−1} (Equation (1)/(3)).
	alphas, err := Alphas(RegimePolynomial, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(alphas); i++ {
		if !almost(alphas[i], (2-0.4)*alphas[i-1], 1e-12) {
			t.Fatalf("recurrence broken at i=%d", i)
		}
	}
}

func TestInverseAlpha1RoundTrips(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, x := range []float64{0.05, 0.3, 0.7, 0.95} {
			for _, regime := range []Regime{RegimePolynomial, RegimeLogStar} {
				var v float64
				var err error
				if regime == RegimePolynomial {
					v, err = Alpha1Poly(x, k)
				} else {
					v, err = Alpha1LogStar(x, k)
				}
				if err != nil {
					t.Fatal(err)
				}
				back, err := InverseAlpha1(regime, v, k)
				if err != nil {
					t.Fatal(err)
				}
				if !almost(back, x, 1e-9) {
					t.Fatalf("%v k=%d: inverse(α1(%v)) = %v", regime, k, x, back)
				}
			}
		}
	}
}

func TestSimplestRational(t *testing.T) {
	cases := []struct {
		lo, hi float64
		want   Rational
	}{
		{0.4, 0.6, Rational{1, 2}},
		{0.3, 0.34, Rational{1, 3}},
		{0.65, 0.67, Rational{2, 3}},
		{0.19, 0.21, Rational{1, 5}},
	}
	for _, tc := range cases {
		got, err := SimplestRationalIn(tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("SimplestRationalIn(%v,%v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	if _, err := SimplestRationalIn(0.5, 0.5); err == nil {
		t.Error("empty interval accepted")
	}
}

func TestQuickSimplestRationalInInterval(t *testing.T) {
	f := func(a, b uint16) bool {
		lo := float64(a%1000)/1001 + 1e-6
		hi := lo + float64(b%100+1)/2000
		if hi >= 1 {
			hi = 0.9999
		}
		if lo >= hi {
			return true
		}
		r, err := SimplestRationalIn(lo, hi)
		if err != nil {
			return false
		}
		v := r.Float()
		return v > lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPolyParamsTheorem1(t *testing.T) {
	// Theorem 1: for any 0 < r1 < r2 <= 1/2 there are (Δ,d,k) with exponent
	// in [r1, r2].
	cases := [][2]float64{{0.1, 0.2}, {0.25, 0.3}, {0.4, 0.5}, {0.05, 0.08}, {0.33, 0.35}}
	for _, tc := range cases {
		p, err := FindPolyParams(tc[0], tc[1])
		if err != nil {
			t.Fatalf("FindPolyParams(%v, %v): %v", tc[0], tc[1], err)
		}
		if p.C < tc[0]-1e-9 || p.C > tc[1]+1e-9 {
			t.Fatalf("(%v,%v): exponent %v outside interval", tc[0], tc[1], p.C)
		}
		if p.Delta < p.D+3 {
			t.Fatalf("Δ=%d < d+3=%d", p.Delta, p.D+3)
		}
		// The rational x must be realized exactly: x = log(Δ−d−1)/log(Δ−1).
		x, err := EfficiencyX(p.Delta, p.D)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(x, p.X.Float(), 1e-12) {
			t.Fatalf("realized x=%v != chosen %v", x, p.X)
		}
		// And the exponent is α_1(x).
		c, err := Alpha1Poly(x, p.K)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(c, p.C, 1e-12) {
			t.Fatalf("C mismatch: %v vs %v", c, p.C)
		}
	}
}

func TestFindPolyParamsRejectsBadRange(t *testing.T) {
	bad := [][2]float64{{0, 0.2}, {0.3, 0.3}, {0.4, 0.6}, {-0.1, 0.2}}
	for _, tc := range bad {
		if _, err := FindPolyParams(tc[0], tc[1]); err == nil {
			t.Errorf("(%v,%v) accepted", tc[0], tc[1])
		}
	}
}

func TestFindLogStarParamsTheorem6(t *testing.T) {
	cases := []struct{ r1, r2, eps float64 }{
		{0.3, 0.5, 0.05},
		{0.5, 0.7, 0.1},
		{0.2, 0.4, 0.08},
	}
	for _, tc := range cases {
		p, err := FindLogStarParams(tc.r1, tc.r2, tc.eps)
		if err != nil {
			t.Fatalf("FindLogStarParams(%v, %v, %v): %v", tc.r1, tc.r2, tc.eps, err)
		}
		if p.C < tc.r1-1e-9 || p.C > tc.r2+1e-9 {
			t.Fatalf("c = %v outside [%v, %v]", p.C, tc.r1, tc.r2)
		}
		if p.CUpper > p.C+tc.eps+1e-9 {
			t.Fatalf("upper exponent %v > c+ε = %v", p.CUpper, p.C+tc.eps)
		}
		if p.CUpper < p.C {
			t.Fatalf("upper exponent %v below lower %v", p.CUpper, p.C)
		}
		if p.Delta < p.D+3 || p.D < 1 {
			t.Fatalf("invalid (Δ=%d, d=%d)", p.Delta, p.D)
		}
	}
}

func TestFigures(t *testing.T) {
	f1, f2 := Figure1(), Figure2()
	if len(f1) < 5 || len(f2) < 7 {
		t.Fatal("figures too small")
	}
	newCount := 0
	for _, e := range f2 {
		if e.New {
			newCount++
		}
	}
	if newCount < 4 {
		t.Fatalf("Figure 2 marks only %d new entries, want >= 4 (Thms 1, 6, 7, Cor 60, Lemma 69)", newCount)
	}
}

func TestSampleDensityPoints(t *testing.T) {
	pts, err := SampleDensityPoints(RegimePolynomial, 0.1, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	prev := 0.0
	for _, p := range pts {
		if p.Exponent <= prev {
			t.Fatalf("density points not increasing: %v", pts)
		}
		prev = p.Exponent
	}
	ls, err := SampleDensityPoints(RegimeLogStar, 0.3, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Fatalf("got %d log* points", len(ls))
	}
}
