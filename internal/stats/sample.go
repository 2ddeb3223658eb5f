package stats

import "math/rand"

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
