package sim

import (
	"math/rand/v2"
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

// TestDefaultIDsMatchOracle: the set-free skip rule returns exactly the
// map-checked IDs. They seed every experiment, so any drift would change
// results.
func TestDefaultIDsMatchOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 17, 1 << 20} {
		for _, seed := range []uint64{0, 1, 7, 42, 0xdeadbeefcafef00d} {
			if got, want := DefaultIDs(n, seed), oracleDefaultIDs(n, seed); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: DefaultIDs differs from the map oracle", n, seed)
			}
		}
	}
}

// TestDefaultIDsSkipRule drives the skip rule directly: a 63-bit collision
// never happens in a DefaultIDs stream, so TestDefaultIDsMatchOracle cannot
// tell a wrong partner index from a right one (a wrong index almost never
// falls below t). Here mixInverse must invert mix, the partner of the value
// mix(seed+t′γ)^1 must be draw t′, and a draw must be skipped exactly when
// that partner index is in [1, t) or its 63-bit value is 0.
func TestDefaultIDsSkipRule(t *testing.T) {
	for _, c := range [][2]uint64{{gamma, gammaInv}, {mixMul1, mixMul1Inv}, {mixMul2, mixMul2Inv}} {
		if c[0]*c[1] != 1 {
			t.Fatalf("%#x · %#x != 1 mod 2^64", c[0], c[1])
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, x := range []uint64{0, 1, 2, 1 << 63, ^uint64(0)} {
		if got := mixInverse(mix(x)); got != x {
			t.Fatalf("mixInverse(mix(%#x)) = %#x", x, got)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		x := rng.Uint64()
		if got := mixInverse(mix(x)); got != x {
			t.Fatalf("mixInverse(mix(%#x)) = %#x", x, got)
		}
	}
	for i := 0; i < 20000; i++ {
		seed := rng.Uint64()
		draw := 1 + rng.Uint64N(5000) // the draw t being decided
		for _, partner := range []uint64{0, 1, draw - 1, draw, draw + 1, rng.Uint64N(draw + 1), rng.Uint64()} {
			z := mix(seed+partner*gamma) ^ 1
			if got := partnerIndex(z, seed); got != partner {
				t.Fatalf("seed %#x: partner of mix(seed+%d·γ)^1 is %d", seed, partner, got)
			}
			want := partner >= 1 && partner < draw || z>>1 == 0
			if got := skipDraw(z, seed, draw); got != want {
				t.Fatalf("seed %#x draw %d, partner %d: skipDraw = %v, want %v", seed, draw, partner, got, want)
			}
		}
		for _, z := range []uint64{0, 1} {
			if !skipDraw(z, seed, draw) {
				t.Fatalf("seed %#x draw %d: value %d issued the ID 0", seed, draw, z)
			}
		}
	}
}
