// Package rng provides small, deterministic, splittable pseudo-random
// utilities used throughout the simulator and the experiment harness.
//
// Reproducibility is a hard requirement for the reproduction: every
// experiment in the paper is re-run from a fixed seed, and independent
// sub-experiments must draw from independent streams so that adding or
// reordering one sweep does not perturb another. The Source type implements
// the splitmix64 generator, which is tiny, fast, passes BigCrush, and —
// unlike math/rand's global state — is trivially splittable by hashing a
// label into a child seed.
package rng

// Source is a deterministic pseudo-random number generator based on
// splitmix64. The zero value is a valid generator seeded with 0; prefer New
// so the seed is explicit.
type Source struct {
	seed  uint64 // the immutable origin, used by Split
	state uint64 // the evolving stream position
}

// New returns a Source seeded with seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{seed: seed, state: seed}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits for a uniform double in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniformly distributed value in [lo, hi). It panics if
// hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// IntN returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN called with n <= 0")
	}
	// Rejection-free multiply-shift reduction; the modulo bias is negligible
	// for the n used here (n << 2^32), but use 64x64->128 style reduction via
	// float is lossy, so do a plain modulo with a bound check loop.
	const maxUint64 = ^uint64(0)
	limit := maxUint64 - maxUint64%uint64(n)
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % uint64(n))
		}
	}
}

// Intn is an alias of IntN matching math/rand naming, convenient when a
// *Source is used where a *math/rand.Rand was expected.
func (s *Source) Intn(n int) int { return s.IntN(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent child Source from the parent's seed (not
// its evolving stream position) and a label: the child obtained for a
// label is the same no matter how many values were already drawn from the
// parent, which lets experiments add or reorder draws without perturbing
// sibling streams.
func (s *Source) Split(label string) *Source {
	h := fnv64a(label)
	// Mix seed and label hash through one splitmix64 round for avalanche.
	z := s.seed ^ h ^ 0x6a09e667f3bcc909
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &Source{seed: z, state: z}
}

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
