// Package grammar defines the heuristic-grammar abstraction at the heart of
// Darwin (Definitions 1-3 of the paper): a labeling heuristic is a derivation
// of a context-free Heuristic Grammar, and the system is agnostic to which
// grammar produced a heuristic. Concrete grammars live in the tokensregex and
// treematch packages; any other grammar can be plugged in by implementing the
// two interfaces below.
package grammar

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/corpus"
)

// Heuristic is a labeling heuristic — a derivation of a heuristic grammar.
// Implementations must be immutable values: all methods are read-only and
// safe for concurrent use.
type Heuristic interface {
	// Key returns a canonical, unique identifier of the heuristic within its
	// grammar (prefixed by the grammar name so keys are globally unique).
	Key() string
	// String returns a human-readable rendering shown to annotators.
	String() string
	// GrammarName names the grammar that produced this heuristic.
	GrammarName() string
	// Depth is the number of derivation rules used to derive the heuristic.
	// The root heuristic has depth 0.
	Depth() int
	// Matches reports whether the (preprocessed) sentence satisfies the
	// heuristic.
	Matches(s *corpus.Sentence) bool
	// Parents returns the generalizations of the heuristic obtained by
	// removing one derivation rule. The depth-1 heuristics return the root
	// heuristic as their only parent; the root returns nil.
	Parents() []Heuristic
}

// Grammar is a heuristic grammar: it enumerates the bounded-depth heuristics
// a sentence satisfies (its derivation sketch), parses textual rule
// specifications into heuristics (for seed rules), and specializes heuristics
// by applying one more derivation rule with a witness sentence.
type Grammar interface {
	// Name returns the grammar's name ("tokensregex", "treematch", ...).
	Name() string
	// Sketch enumerates the heuristics of depth <= maxDepth satisfied by the
	// sentence, deduplicated by key, in a fresh slice the caller may reorder.
	// This is the derivation sketch of §3.1. Any order is allowed, but a
	// sketch sorted by key lets Registry.Sketch skip its sort.
	Sketch(s *corpus.Sentence, maxDepth int) []Heuristic
	// Parse converts a textual rule specification into a heuristic.
	Parse(spec string) (Heuristic, error)
	// Specialize returns the children of h (one extra derivation rule) that
	// still match the witness sentence s, up to maxDepth. It is used by the
	// LocalSearch traversal to expand the hierarchy on the fly.
	Specialize(h Heuristic, s *corpus.Sentence, maxDepth int) []Heuristic
}

// RootKey is the key of the universal root heuristic '*', which matches every
// sentence and sits at the top of the index and of every hierarchy.
const RootKey = "*"

// rootHeuristic is the singleton root.
type rootHeuristic struct{}

// Root returns the universal root heuristic '*'.
func Root() Heuristic { return rootHeuristic{} }

func (rootHeuristic) Key() string                   { return RootKey }
func (rootHeuristic) String() string                { return "*" }
func (rootHeuristic) GrammarName() string           { return "root" }
func (rootHeuristic) Depth() int                    { return 0 }
func (rootHeuristic) Matches(*corpus.Sentence) bool { return true }
func (rootHeuristic) Parents() []Heuristic          { return nil }

// IsRoot reports whether h is the universal root heuristic.
func IsRoot(h Heuristic) bool {
	return h != nil && h.Key() == RootKey
}

// Registry maps grammar names to grammars so a rule specification like
// "tokensregex:best way to" or "treematch:way/to" can be parsed without the
// caller knowing which grammar owns it.
type Registry struct {
	grammars map[string]Grammar
	order    []string
}

// NewRegistry creates a registry containing the given grammars.
func NewRegistry(grammars ...Grammar) *Registry {
	r := &Registry{grammars: make(map[string]Grammar)}
	for _, g := range grammars {
		r.Register(g)
	}
	return r
}

// Register adds a grammar to the registry (replacing a same-named grammar).
func (r *Registry) Register(g Grammar) {
	if _, exists := r.grammars[g.Name()]; !exists {
		r.order = append(r.order, g.Name())
	}
	r.grammars[g.Name()] = g
}

// Get returns the grammar with the given name.
func (r *Registry) Get(name string) (Grammar, bool) {
	g, ok := r.grammars[name]
	return g, ok
}

// Grammars returns the registered grammars in registration order.
func (r *Registry) Grammars() []Grammar {
	out := make([]Grammar, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.grammars[name])
	}
	return out
}

// Parse parses a rule specification of the form "grammar:spec". A spec with
// no grammar prefix is tried against every registered grammar in registration
// order and the first successful parse wins.
func (r *Registry) Parse(spec string) (Heuristic, error) {
	spec = strings.TrimSpace(spec)
	if spec == RootKey {
		return Root(), nil
	}
	if i := strings.Index(spec, ":"); i > 0 {
		name := spec[:i]
		if g, ok := r.grammars[name]; ok {
			return g.Parse(spec[i+1:])
		}
	}
	var firstErr error
	for _, name := range r.order {
		h, err := r.grammars[name].Parse(spec)
		if err == nil {
			return h, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no grammars registered")
	}
	return nil, fmt.Errorf("grammar: cannot parse rule %q: %w", spec, firstErr)
}

// Sketch returns the union of all registered grammars' sketches for the
// sentence, deduplicated by key and sorted by key for determinism. Keys carry
// their grammar's name, so sketches of different grammars never collide; the
// concatenation is sorted only when it is not sorted already, as a single
// sorted grammar's sketch is.
func (r *Registry) Sketch(s *corpus.Sentence, maxDepth int) []Heuristic {
	var out []Heuristic
	for i, name := range r.order {
		hs := r.grammars[name].Sketch(s, maxDepth)
		if i == 0 {
			out = slices.Clip(hs)
		} else {
			out = append(out, hs...)
		}
	}
	if !sortedByKey(out) {
		slices.SortFunc(out, func(a, b Heuristic) int { return strings.Compare(a.Key(), b.Key()) })
		out = slices.CompactFunc(out, func(a, b Heuristic) bool { return a.Key() == b.Key() })
	}
	return out
}

// sortedByKey reports whether hs is sorted by strictly increasing key.
func sortedByKey(hs []Heuristic) bool {
	for i := 1; i < len(hs); i++ {
		if hs[i-1].Key() >= hs[i].Key() {
			return false
		}
	}
	return true
}

// Specialize dispatches to the grammar that owns h. Specializing the root
// returns the depth-1 heuristics of every grammar's sketch of s.
func (r *Registry) Specialize(h Heuristic, s *corpus.Sentence, maxDepth int) []Heuristic {
	if IsRoot(h) {
		var out []Heuristic
		for _, name := range r.order {
			for _, c := range r.grammars[name].Sketch(s, 1) {
				out = append(out, c)
			}
		}
		return out
	}
	if g, ok := r.grammars[h.GrammarName()]; ok {
		return g.Specialize(h, s, maxDepth)
	}
	return nil
}

// Coverage computes the coverage set C_r of a heuristic over a corpus by
// matching it against every sentence. The index provides a much faster path
// for heuristics it has materialized; this function is the fallback for
// ad-hoc heuristics such as parsed seed rules.
func Coverage(h Heuristic, c *corpus.Corpus) []int {
	var out []int
	for _, s := range c.Sentences {
		if h.Matches(s) {
			out = append(out, s.ID)
		}
	}
	return out
}
