package sim

import (
	"slices"
	"testing"
)

// oracleDefaultIDs is DefaultIDs with its uniqueness check in a map.
func oracleDefaultIDs(n int, seed uint64) []uint64 {
	ids := make([]uint64, n)
	used := make(map[uint64]bool, n)
	s := seed
	for i := 0; i < n; i++ {
		for {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			z >>= 1
			if z != 0 && !used[z] {
				used[z] = true
				ids[i] = z
				break
			}
		}
	}
	return ids
}

// TestDefaultIDsMatchOracle: the open-addressed set returns exactly the
// map-checked IDs. They seed every experiment, so any drift would change
// results.
func TestDefaultIDsMatchOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 17} {
		for _, seed := range []uint64{0, 1, 7, 42, 0xdeadbeefcafef00d} {
			if got, want := DefaultIDs(n, seed), oracleDefaultIDs(n, seed); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: DefaultIDs differs from the map oracle", n, seed)
			}
		}
	}
}

// TestIDSetRejectsDuplicates drives the duplicate branch directly: a 63-bit
// collision never happens in a DefaultIDs stream, so without this test the
// branch that makes DefaultIDs skip one would go unexercised. Keys 3, 11,
// 19, 27 and 35 share home slot 3 of the 8-slot table, so they probe past
// each other and 35 wraps around to slot 0.
func TestIDSetRejectsDuplicates(t *testing.T) {
	s := newIDSet(4)
	if len(s) != 8 {
		t.Fatalf("table for 4 IDs has %d slots, want 8", len(s))
	}
	for _, z := range []uint64{3, 11, 19, 4} {
		if !s.insert(z) {
			t.Fatalf("fresh ID %d reported as a duplicate", z)
		}
	}
	for _, z := range []uint64{3, 11, 19, 4} {
		if s.insert(z) {
			t.Fatalf("duplicate ID %d inserted twice", z)
		}
	}
	for _, z := range []uint64{27, 35} {
		if !s.insert(z) {
			t.Fatalf("fresh ID %d reported as a duplicate", z)
		}
	}
	if s[0] != 35 || s.insert(35) {
		t.Fatalf("ID 35 did not wrap to slot 0 or was inserted twice: %v", s)
	}
	if got := len(slices.DeleteFunc(slices.Clone(s), func(z uint64) bool { return z == 0 })); got != 6 {
		t.Fatalf("table holds %d IDs, want 6", got)
	}
}
