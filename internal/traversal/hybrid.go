package traversal

// DefaultTau is the default number of unsuccessful attempts before
// HybridSearch toggles between universal and local mode (§3.6).
const DefaultTau = 5

// HybridSearch implements Algorithm 5: it alternates between the
// UniversalSearch and LocalSearch strategies, switching whenever the current
// strategy fails to find a precise rule for τ consecutive attempts. It starts
// in universal mode, as in the paper.
type HybridSearch struct {
	Tau int

	local     *LocalSearch
	universal *UniversalSearch

	universalMode bool
	attempts      int
	// proposedByLocal remembers which queried keys came from the local
	// component, so rejected universal proposals do not pollute the local
	// frontier with their children.
	proposedByLocal map[string]bool
}

// NewHybridSearch returns a HybridSearch with the given τ (values <= 0 use
// DefaultTau) seeded with the given rule keys for its local component.
func NewHybridSearch(tau int, seedKeys ...string) *HybridSearch {
	if tau <= 0 {
		tau = DefaultTau
	}
	// The universal component runs in strict mode: when no rule passes the
	// average-benefit filter (a weak classifier early on), it reports failure
	// so the hybrid immediately falls back to structure-driven LocalSearch
	// instead of querying low-precision rules.
	return &HybridSearch{
		Tau:             tau,
		local:           NewLocalSearch(seedKeys...),
		universal:       &UniversalSearch{Relax: false},
		universalMode:   true,
		proposedByLocal: make(map[string]bool),
	}
}

// Name implements Traversal.
func (hs *HybridSearch) Name() string { return "hybrid" }

// InUniversalMode reports which mode the strategy is currently in (exported
// for tests and diagnostics).
func (hs *HybridSearch) InUniversalMode() bool { return hs.universalMode }

// Next implements Traversal (Algorithm 5 lines 6-13). If the active mode has
// no candidate to propose, it switches immediately rather than stalling.
// When neither mode has one, Next leaves the search as it found it: a
// workspace asks again once other annotators free candidates, and an empty
// proposal must not count as an attempt.
func (hs *HybridSearch) Next(st *State) (string, bool) {
	mode, attempts := hs.universalMode, hs.attempts
	key, ok := hs.next(st)
	if !ok {
		hs.universalMode, hs.attempts = mode, attempts
	}
	return key, ok
}

func (hs *HybridSearch) next(st *State) (string, bool) {
	if hs.attempts >= hs.Tau {
		hs.toggle()
	}
	hs.attempts++
	if hs.universalMode {
		if key, ok := hs.universal.Next(st); ok {
			// An accepted universal proposal expands the local frontier.
			hs.local.note(st, key)
			return key, true
		}
		hs.toggle()
		key, ok := hs.local.Next(st)
		if ok {
			hs.proposedByLocal[key] = true
		}
		return key, ok
	}
	if key, ok := hs.local.Next(st); ok {
		hs.proposedByLocal[key] = true
		return key, true
	}
	hs.toggle()
	key, ok := hs.universal.Next(st)
	if ok {
		hs.local.note(st, key)
	}
	return key, ok
}

func (hs *HybridSearch) toggle() {
	hs.universalMode = !hs.universalMode
	hs.attempts = 0
}

// Feedback implements Traversal (Algorithm 5 lines 14-20). Accepted rules are
// fed to the local component regardless of which mode proposed them (their
// generalizations are worth exploring); rejected rules only update the local
// frontier when the local component proposed them, so a run of imprecise
// universal proposals does not flood the frontier with their children. A YES
// resets the unsuccessful-attempt counter.
func (hs *HybridSearch) Feedback(st *State, key string, accepted bool) {
	if accepted || hs.proposedByLocal[key] {
		hs.local.Feedback(st, key, accepted)
	} else {
		delete(hs.local.proposed, key)
	}
	hs.universal.Feedback(st, key, accepted)
	if accepted {
		hs.attempts = 0
	}
}

// Reseed implements Traversal.
func (hs *HybridSearch) Reseed(st *State, key string) {
	hs.local.Reseed(st, key)
}

// New constructs a traversal by name: "local", "universal" or "hybrid"
// (anything else falls back to hybrid, the paper's recommended strategy).
func New(name string, tau int, seedKeys ...string) Traversal {
	switch name {
	case "local", "ls":
		return NewLocalSearch(seedKeys...)
	case "universal", "us":
		return NewUniversalSearch()
	default:
		return NewHybridSearch(tau, seedKeys...)
	}
}
