// Package baselines implements the comparison techniques of §4.3 and §4.4:
// the HighP and HighC rule-selection baselines (plugged into the Darwin
// engine as alternative traversal strategies) and the Active Learning and
// Keyword Sampling instance-labeling baselines.
package baselines

import (
	"repro/internal/grammar"
	"repro/internal/traversal"
)

// HighP selects the rule the classifier expects to be most precise (highest
// average benefit), regardless of how many new sentences it covers. As the
// paper observes, this tends to pick rules with very small coverage.
type HighP struct {
	// MinNewCoverage skips rules adding fewer than this many new sentences
	// (1 keeps the baseline from proposing fully-covered rules forever).
	MinNewCoverage int
}

// NewHighP returns the HighP baseline.
func NewHighP() *HighP { return &HighP{MinNewCoverage: 1} }

// Name implements traversal.Traversal.
func (h *HighP) Name() string { return "highP" }

// Next implements traversal.Traversal.
func (h *HighP) Next(st *traversal.State) (string, bool) {
	best := ""
	bestAvg := -1.0
	bestCov := -1
	minNew := h.MinNewCoverage
	if minNew <= 0 {
		minNew = 1
	}
	for _, key := range st.Hierarchy.NonRootKeys() {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		if st.Hierarchy.Node(key) == nil {
			continue
		}
		benefit, newCov := st.BenefitNewOf(key)
		if newCov < minNew {
			continue
		}
		avg := benefit / float64(newCov)
		// Ties are broken toward SMALLER coverage: HighP optimizes expected
		// precision irrespective of coverage, which is exactly why the paper
		// finds it picks rules that label very few new sentences.
		if avg > bestAvg || (avg == bestAvg && (bestCov < 0 || newCov < bestCov)) ||
			(avg == bestAvg && newCov == bestCov && (best == "" || key < best)) {
			best, bestAvg, bestCov = key, avg, newCov
		}
	}
	return best, best != ""
}

// Feedback implements traversal.Traversal (stateless).
func (h *HighP) Feedback(*traversal.State, string, bool) {}

// Reseed implements traversal.Traversal (no-op).
func (h *HighP) Reseed(*traversal.State, string) {}

// HighC selects the rule with the largest coverage irrespective of its
// expected precision. The paper reports that most of its proposals are
// rejected by the oracle.
type HighC struct{}

// NewHighC returns the HighC baseline.
func NewHighC() *HighC { return &HighC{} }

// Name implements traversal.Traversal.
func (h *HighC) Name() string { return "highC" }

// Next implements traversal.Traversal.
func (h *HighC) Next(st *traversal.State) (string, bool) {
	best := ""
	bestNew := 0
	for _, key := range st.Hierarchy.NonRootKeys() {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		if st.Hierarchy.Node(key) == nil {
			continue
		}
		_, newCov := st.BenefitNewOf(key)
		if newCov > bestNew || (newCov == bestNew && newCov > 0 && (best == "" || key < best)) {
			best, bestNew = key, newCov
		}
	}
	return best, best != ""
}

// Feedback implements traversal.Traversal (stateless).
func (h *HighC) Feedback(*traversal.State, string, bool) {}

// Reseed implements traversal.Traversal (no-op).
func (h *HighC) Reseed(*traversal.State, string) {}
