// Package traversal implements the three hierarchy-traversal strategies of
// §3.3–3.6: LocalSearch (Algorithm 3), UniversalSearch (Algorithm 4) and
// HybridSearch (Algorithm 5). A traversal decides which candidate heuristic
// to submit to the oracle next, based on the benefit score
//
//	benefit(r) = Σ_{s ∈ C_r \ P} p_s
//
// where p_s is the classifier's probability that sentence s is positive.
//
// Scoring runs on each rule's coverage set (hierarchy node or index) against
// the bitset positive set; every kernel accumulates scores in ascending
// sentence-ID order, so the sums are bit-identical across representations.
package traversal

import (
	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
)

// State is the shared, mutable view of the discovery loop that traversals
// read: the current hierarchy, the index, the set of discovered positives,
// the classifier scores, and the set of already-queried rule keys.
type State struct {
	Hierarchy *hierarchy.Hierarchy
	Index     *index.Index
	// Positives is the discovered positive set P (sentence IDs).
	Positives map[int]bool
	// PosBits is the bitset mirror of Positives. Workspaces maintain it
	// incrementally; when nil, it is built lazily from Positives on first
	// use (so hand-built states keep working). A caller that supplies
	// PosBits must keep it consistent with Positives itself.
	PosBits bitset.Set
	// Scores holds p_s for every sentence (indexed by sentence ID).
	Scores []float64
	// Queried marks rule keys already submitted to the oracle.
	Queried map[string]bool

	posBitsBuilt bool
	posBitsN     int
}

// coverOf returns the coverage set of a rule key, preferring the hierarchy
// node (which is guaranteed present for hierarchy-generated candidates) and
// falling back to the index's published set; nil when the key is unknown.
func (st *State) coverOf(key string) bitset.Cover {
	if n := st.Hierarchy.Node(key); n != nil {
		return n.Bits
	}
	if st.Index != nil {
		return st.Index.Bits(key)
	}
	return nil
}

// posBits returns the bitset positive set, building (and caching) it from
// the map on first use. A lazily built set is rebuilt when the map's size
// changed since, so hand-built states that grow Positives between scoring
// calls stay consistent with the map.
func (st *State) posBits() bitset.Set {
	if st.PosBits == nil && !st.posBitsBuilt || st.posBitsBuilt && st.posBitsN != len(st.Positives) {
		st.posBitsBuilt = true
		st.posBitsN = len(st.Positives)
		st.PosBits = bitset.FromMap(st.Positives)
	}
	return st.PosBits
}

// Benefit computes Σ_{s ∈ cov \ P} p_s, accumulating in ascending
// sentence-ID order. Ids beyond len(scores) contribute nothing.
func Benefit(cov bitset.Cover, positives bitset.Set, scores []float64) float64 {
	sum, _ := cov.AndNotSum(positives, scores)
	return sum
}

// AvgBenefit computes the benefit per (new) instance: Benefit / |cov \ P|.
// Rules whose coverage is already fully contained in P have average benefit 0.
func AvgBenefit(cov bitset.Cover, positives bitset.Set, scores []float64) float64 {
	sum, newCov := cov.AndNotSum(positives, scores)
	if newCov == 0 {
		return 0
	}
	return sum / float64(newCov)
}

// BenefitOf scores a rule key against the state.
func (st *State) BenefitOf(key string) float64 {
	b, _ := st.BenefitNewOf(key)
	return b
}

// BenefitNewOf returns (benefit, |cov \ P|) for a rule key in one kernel
// pass; (0, 0) for an unknown key.
func (st *State) BenefitNewOf(key string) (float64, int) {
	cov := st.coverOf(key)
	if cov == nil {
		return 0, 0
	}
	return cov.AndNotSum(st.posBits(), st.Scores)
}

// AvgBenefitOf returns the per-instance benefit of a rule key.
func (st *State) AvgBenefitOf(key string) float64 {
	b, newCov := st.BenefitNewOf(key)
	if newCov == 0 {
		return 0
	}
	return b / float64(newCov)
}

// countOf returns |C_r| for a rule key (0 when unknown).
func (st *State) countOf(key string) int {
	if cov := st.coverOf(key); cov != nil {
		return cov.Count()
	}
	return 0
}

// Traversal selects the next candidate heuristic to submit to the oracle.
type Traversal interface {
	// Name identifies the strategy ("local", "universal", "hybrid").
	Name() string
	// Next returns the key of the next rule to query, or false if the
	// strategy has no candidate to propose.
	Next(st *State) (string, bool)
	// Feedback informs the strategy of the oracle's answer for a rule it
	// proposed.
	Feedback(st *State, key string, accepted bool)
	// Reseed registers an accepted seed rule (or any externally accepted
	// rule) so local strategies can explore around it.
	Reseed(st *State, key string)
}

// pickBest returns the unqueried key with the highest benefit, breaking ties
// by higher new coverage then lexicographic key for determinism. The boolean
// reports whether any eligible candidate exists. Each candidate is scored in
// a single kernel pass (benefit and new coverage together).
func pickBest(st *State, keys []string, requireAvgBenefit float64) (string, bool) {
	bestKey := ""
	bestBenefit := -1.0
	bestNew := -1
	for _, key := range keys {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		if st.countOf(key) == 0 {
			continue
		}
		b, newCov := st.BenefitNewOf(key)
		if requireAvgBenefit > 0 {
			avg := 0.0
			if newCov > 0 {
				avg = b / float64(newCov)
			}
			if avg <= requireAvgBenefit {
				continue
			}
		}
		if newCov == 0 {
			continue
		}
		if b > bestBenefit || (b == bestBenefit && newCov > bestNew) ||
			(b == bestBenefit && newCov == bestNew && (bestKey == "" || key < bestKey)) {
			bestKey, bestBenefit, bestNew = key, b, newCov
		}
	}
	return bestKey, bestKey != ""
}
