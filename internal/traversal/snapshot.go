package traversal

import "sort"

// Saved is the serializable state of a built-in traversal: everything that
// feedback and earlier proposals accumulated, so a restored traversal
// continues exactly where the saved one stopped. UniversalSearch keeps no
// state, so its Saved is empty.
type Saved struct {
	// Candidates is the LocalSearch frontier (HybridSearch's local
	// component), sorted, and Proposed the neighborhoods noted for the
	// rules proposed and not yet answered.
	Candidates []string                `json:"candidates,omitempty"`
	Proposed   map[string]Neighborhood `json:"proposed,omitempty"`
	// Universal, Attempts and LocalProposed are HybridSearch's mode, its
	// unsuccessful-attempt counter and the keys its local component
	// proposed (sorted).
	Universal     bool     `json:"universal,omitempty"`
	Attempts      int      `json:"attempts,omitempty"`
	LocalProposed []string `json:"local_proposed,omitempty"`
}

// Save captures t's state. ok is false for traversals this package does not
// know (custom strategies), whose state cannot be captured.
func Save(t Traversal) (s Saved, ok bool) {
	switch t := t.(type) {
	case *LocalSearch:
		return Saved{Candidates: sortedKeys(t.candidates), Proposed: copyProposed(t.proposed)}, true
	case *UniversalSearch:
		return Saved{}, true
	case *HybridSearch:
		return Saved{
			Candidates:    sortedKeys(t.local.candidates),
			Proposed:      copyProposed(t.local.proposed),
			Universal:     t.universalMode,
			Attempts:      t.attempts,
			LocalProposed: sortedKeys(t.proposedByLocal),
		}, true
	}
	return Saved{}, false
}

// Load overwrites t's state with s. Traversals Save does not know are left
// untouched.
func Load(t Traversal, s Saved) {
	switch t := t.(type) {
	case *LocalSearch:
		t.candidates, t.proposed = keySet(s.Candidates), copyProposed(s.Proposed)
	case *HybridSearch:
		t.local.candidates, t.local.proposed = keySet(s.Candidates), copyProposed(s.Proposed)
		t.universalMode = s.Universal
		t.attempts = s.Attempts
		t.proposedByLocal = keySet(s.LocalProposed)
	}
}

// copyProposed copies a neighborhood map; the slices are never modified, so
// they are shared.
func copyProposed(m map[string]Neighborhood) map[string]Neighborhood {
	out := make(map[string]Neighborhood, len(m))
	for k, nb := range m {
		out[k] = nb
	}
	return out
}

func keySet(keys []string) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// sortedKeys returns the keys of a string set in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
