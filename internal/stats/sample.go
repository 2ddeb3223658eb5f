package stats

import "math/rand"

// Shuffle permutes idx in place using rng.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// 0..n-1. It returns all n indices (shuffled) when k >= n and nil when
// k <= 0.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// Bootstrap returns k indices drawn uniformly with replacement from 0..n-1.
func Bootstrap(rng *rand.Rand, n, k int) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// SplitSeed derives a stream of independent sub-seeds from one master seed,
// so parallel experiment repetitions are reproducible regardless of
// scheduling. It uses the SplitMix64 finalizer.
func SplitSeed(master int64, stream int) int64 {
	z := uint64(master) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// NewRand returns a rand.Rand seeded with SplitSeed(master, stream).
func NewRand(master int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(master, stream)))
}
