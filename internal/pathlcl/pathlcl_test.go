package pathlcl

import (
	"fmt"
	"testing"
	"testing/quick"
)

func findProblem(t *testing.T, name string) Problem {
	t.Helper()
	for _, p := range Catalogue() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("catalogue has no %q", name)
	return Problem{}
}

func TestClassifyCatalogue(t *testing.T) {
	want := map[string]Class{
		"trivial (any labeling)":          ClassConstant,
		"consistent value":                ClassConstant,
		"2-coloring":                      ClassLinear,
		"3-coloring":                      ClassLogStar,
		"at most one color change (weak)": ClassConstant,
		"no solution":                     ClassUnsolvable,
		"5-cycle walk (odd, loopless)":    ClassLogStar,
		"4-cycle walk (even, loopless)":   ClassLinear,
	}
	for _, p := range Catalogue() {
		got, err := Classify(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got != want[p.Name] {
			t.Errorf("%s: classified %v, want %v", p.Name, got, want[p.Name])
		}
	}
}

func TestClassifyRejectsAsymmetric(t *testing.T) {
	p := Problem{
		Name:   "asym",
		Labels: 2,
		Allowed: [][]bool{
			{false, true},
			{false, false},
		},
	}
	if _, err := Classify(p); err == nil {
		t.Fatal("asymmetric relation accepted")
	}
}

func TestSolvePathProducesValidLabelings(t *testing.T) {
	for _, p := range Catalogue() {
		class, err := Classify(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 5, 40} {
			labels, err := solvePath(p, n)
			if class == ClassUnsolvable && n >= 2 {
				if err == nil {
					t.Errorf("%s: unsolvable but solvePath succeeded", p.Name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s n=%d: %v", p.Name, n, err)
			}
			if err := verifyLabeling(p, labels); err != nil {
				t.Fatalf("%s n=%d: %v", p.Name, n, err)
			}
		}
	}
}

func TestTwoColoringNeedsParity(t *testing.T) {
	p := findProblem(t, "2-coloring")
	// All-same labeling must be rejected by the verifier.
	if verifyLabeling(p, []int{0, 0}) == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if verifyLabeling(p, []int{0, 1, 0, 1}) != nil {
		t.Fatal("alternating labeling rejected")
	}
}

func TestQuickClassifyTotal(t *testing.T) {
	// Classify must return a sensible class for every random symmetric
	// relation.
	f := func(bits uint16, sz uint8) bool {
		labels := 1 + int(sz)%4
		allowed := make([][]bool, labels)
		for i := range allowed {
			allowed[i] = make([]bool, labels)
		}
		b := bits
		for a := 0; a < labels; a++ {
			for c := a; c < labels; c++ {
				if b&1 == 1 {
					allowed[a][c] = true
					allowed[c][a] = true
				}
				b >>= 1
			}
		}
		p := Problem{Name: "rand", Labels: labels, Allowed: allowed}
		class, err := Classify(p)
		if err != nil {
			return false
		}
		switch class {
		case ClassUnsolvable, ClassConstant, ClassLogStar, ClassLinear:
		default:
			return false
		}
		// Constructive cross-check: solvable classes must actually solve.
		if class != ClassUnsolvable {
			lab, err := solvePath(p, 17)
			if err != nil {
				return false
			}
			if verifyLabeling(p, lab) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassConstant.String() != "O(1)" || ClassLinear.String() != "Θ(n)" {
		t.Fatal("class names wrong")
	}
}

// verifyLabeling checks a labeling of a path (nodes in path order).
func verifyLabeling(p Problem, labels []int) error {
	for i, l := range labels {
		if l < 0 || l >= p.Labels {
			return fmt.Errorf("%w: label %d at position %d", ErrBadProblem, l, i)
		}
		if i > 0 && !p.Allowed[labels[i-1]][l] {
			return fmt.Errorf("%w: pair (%d,%d) at positions %d,%d not allowed",
				ErrBadProblem, labels[i-1], l, i-1, i)
		}
	}
	return nil
}

// solvePath produces a valid labeling of a path with n nodes for any
// solvable problem, using the class-appropriate strategy (constant labeling,
// walk unrolling, or parity), so the tests confirm Classify's solvability
// verdicts constructively.
func solvePath(p Problem, n int) ([]int, error) {
	class, err := Classify(p)
	if err != nil {
		return nil, err
	}
	switch class {
	case ClassUnsolvable:
		if n == 1 {
			return []int{0}, nil
		}
		return nil, fmt.Errorf("pathlcl: %q unsolvable for n=%d", p.Name, n)
	case ClassConstant:
		for a := 0; a < p.Labels; a++ {
			if p.Allowed[a][a] {
				out := make([]int, n)
				for i := range out {
					out[i] = a
				}
				return out, nil
			}
		}
		return nil, fmt.Errorf("pathlcl: internal: constant class without self-loop")
	default:
		// Unroll any walk: greedily continue from an arbitrary edge.
		var a, b int
		found := false
		for a = 0; a < p.Labels && !found; a++ {
			for b = 0; b < p.Labels; b++ {
				if p.Allowed[a][b] {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		out := make([]int, n)
		for i := range out {
			if i%2 == 0 {
				out[i] = a
			} else {
				out[i] = b
			}
		}
		return out, nil
	}
}
