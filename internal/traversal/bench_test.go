package traversal

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// benchFixture builds a synthetic coverage/positives/scores triple shaped
// like the interactive workload: a corpus of n sentences, a rule covering
// covFrac of them, and a positive set of posFrac of them.
func benchFixture(n int, covFrac, posFrac float64, seed int64) (cov *bitset.Adaptive, pos bitset.Set, scores []float64) {
	rng := rand.New(rand.NewSource(seed))
	scores = make([]float64, n)
	cov, pos = bitset.NewAdaptive(), bitset.New(n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64()
		if rng.Float64() < covFrac {
			cov.Add(i)
		}
		if rng.Float64() < posFrac {
			pos.Add(i)
		}
	}
	return cov, pos, scores
}

// BenchmarkBenefit measures the benefit kernel Σ_{s ∈ C_r \ P} p_s on a rule
// covering ~10% of a 10K-sentence corpus with ~5% discovered positives.
func BenchmarkBenefit(b *testing.B) {
	cov, pos, scores := benchFixture(10000, 0.10, 0.05, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Benefit(cov, pos, scores)
	}
	_ = sink
}

// BenchmarkAvgBenefit measures the per-instance benefit variant.
func BenchmarkAvgBenefit(b *testing.B) {
	cov, pos, scores := benchFixture(10000, 0.10, 0.05, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += AvgBenefit(cov, pos, scores)
	}
	_ = sink
}
