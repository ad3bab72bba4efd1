package traversal

import (
	"repro/internal/grammar"
)

// LocalSearch implements Algorithm 3: it keeps a set of local candidates
// around the rules already confirmed by the oracle. On a YES it adds the
// rule's parents (generalizations that may capture more positives); on a NO
// it adds the rule's children (specializations that may be less noisy).
// Candidate neighborhoods are taken from the hierarchy when the rule is
// materialized there and from the index otherwise, so the hierarchy can be
// expanded on the fly (the "efficient implementation" of §3.4).
type LocalSearch struct {
	candidates map[string]bool
}

// NewLocalSearch returns a LocalSearch seeded with the given rule keys
// (typically the seed heuristic r0).
func NewLocalSearch(seedKeys ...string) *LocalSearch {
	ls := &LocalSearch{candidates: make(map[string]bool)}
	for _, k := range seedKeys {
		if k != "" && k != grammar.RootKey {
			ls.candidates[k] = true
		}
	}
	return ls
}

// Name implements Traversal.
func (ls *LocalSearch) Name() string { return "local" }

// Next implements Traversal: the most beneficial unqueried local candidate.
// Two fallbacks keep the strategy from stalling: if no local candidate adds
// new coverage, the best zero-gain local candidate is proposed anyway (its
// feedback still expands the frontier, exactly as in Algorithm 3); and if the
// local candidate set is empty (e.g. the pipeline was seeded with positive
// sentences rather than a seed rule), the search bootstraps from the current
// hierarchy.
func (ls *LocalSearch) Next(st *State) (string, bool) {
	keys := sortedKeys(ls.candidates)
	if key, ok := pickBest(st, keys, 0); ok {
		return key, true
	}
	// Zero-gain fallback within the local frontier: propose a structurally
	// adjacent rule even if it adds nothing, so feedback keeps expanding the
	// neighborhood (mirrors Algorithm 3, which never filters by gain).
	for _, key := range keys {
		if !st.Queried[key] && key != grammar.RootKey && st.countOf(key) > 0 {
			return key, true
		}
	}
	// Bootstrap fallback: the frontier is empty or exhausted (e.g. the
	// pipeline was seeded with positive sentences rather than a seed rule).
	// Pick the hierarchy rule whose coverage looks most precise against the
	// discovered positives, which is robust even when the classifier is
	// still uninformative.
	if key, ok := ls.bestByOverlap(st); ok {
		ls.candidates[key] = true
		return key, true
	}
	return "", false
}

// bestByOverlap returns the unqueried hierarchy rule that looks most precise
// against the discovered positive set: highest overlap ratio |C_r ∩ P|/|C_r|
// (a rule contained in the positive region is a promising candidate even
// before the classifier is informative), breaking ties by absolute overlap
// and then by benefit.
func (ls *LocalSearch) bestByOverlap(st *State) (string, bool) {
	best := ""
	bestRatio := -1.0
	bestOverlap := -1
	bestBenefit := -1.0
	for _, key := range st.Hierarchy.NonRootKeys() {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		total := st.countOf(key)
		if total == 0 {
			continue
		}
		b, newCov := st.BenefitNewOf(key)
		overlap := total - newCov
		if newCov == 0 || overlap == 0 {
			continue
		}
		ratio := float64(overlap) / float64(total)
		if ratio > bestRatio ||
			(ratio == bestRatio && overlap > bestOverlap) ||
			(ratio == bestRatio && overlap == bestOverlap && b > bestBenefit) {
			best, bestRatio, bestOverlap, bestBenefit = key, ratio, overlap, b
		}
	}
	return best, best != ""
}

// Feedback implements Traversal (Algorithm 3 lines 7-12).
func (ls *LocalSearch) Feedback(st *State, key string, accepted bool) {
	delete(ls.candidates, key)
	var neighborhood []string
	if accepted {
		neighborhood = ls.parentsOf(st, key)
	} else {
		neighborhood = ls.childrenOf(st, key)
	}
	for _, nk := range neighborhood {
		if nk == grammar.RootKey || st.Queried[nk] {
			continue
		}
		ls.candidates[nk] = true
	}
}

// Reseed implements Traversal: expand around an externally accepted rule.
func (ls *LocalSearch) Reseed(st *State, key string) {
	for _, nk := range ls.parentsOf(st, key) {
		if nk != grammar.RootKey && !st.Queried[nk] {
			ls.candidates[nk] = true
		}
	}
	for _, nk := range ls.childrenOf(st, key) {
		if !st.Queried[nk] {
			ls.candidates[nk] = true
		}
	}
}

// CandidateCount returns the current number of local candidates (used in
// tests and diagnostics).
func (ls *LocalSearch) CandidateCount() int { return len(ls.candidates) }

func (ls *LocalSearch) parentsOf(st *State, key string) []string {
	if n := st.Hierarchy.Node(key); n != nil && len(n.Parents) > 0 {
		return n.Parents
	}
	if ps := st.Index.Parents(key); len(ps) > 0 {
		return ps
	}
	// Fall back to grammatical parents of the heuristic itself, materializing
	// them in the index if needed is the engine's job; here we only return
	// keys that are known somewhere.
	var out []string
	if n := st.Index.Node(key); n != nil {
		for _, p := range n.Heuristic.Parents() {
			if st.Index.Node(p.Key()) != nil || st.Hierarchy.Contains(p.Key()) {
				out = append(out, p.Key())
			}
		}
	}
	return out
}

func (ls *LocalSearch) childrenOf(st *State, key string) []string {
	if n := st.Hierarchy.Node(key); n != nil && len(n.Children) > 0 {
		return n.Children
	}
	return st.Index.Children(key)
}
