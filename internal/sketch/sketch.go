// Package sketch builds per-sentence derivation sketches (§3.1, Figure 5 of
// the paper): the summary of all bounded-depth heuristics a sentence
// satisfies, for every registered heuristic grammar. Sketches are the unit
// that the index merges (Figure 6).
package sketch

import (
	"repro/internal/corpus"
	"repro/internal/grammar"
)

// Sketch is the derivation sketch of one sentence: the heuristics (across all
// grammars) that the sentence satisfies, bounded by the builder's MaxDepth.
type Sketch struct {
	// SentenceID is the ID of the sketched sentence.
	SentenceID int
	// Heuristics lists the satisfied heuristics, deduplicated by key and
	// sorted by key.
	Heuristics []grammar.Heuristic
}

// Builder creates derivation sketches.
type Builder struct {
	// Registry provides the heuristic grammars.
	Registry *grammar.Registry
	// MaxDepth bounds the number of derivation rules per heuristic. The
	// paper uses a maximum depth of 10 for generating derivation sketches;
	// phrase-style grammars rarely benefit from more than 5-6.
	MaxDepth int
}

// NewBuilder returns a Builder over the registry with the given max depth.
func NewBuilder(reg *grammar.Registry, maxDepth int) *Builder {
	if maxDepth <= 0 {
		maxDepth = 10
	}
	return &Builder{Registry: reg, MaxDepth: maxDepth}
}

// Build returns the derivation sketch of a single sentence.
func (b *Builder) Build(s *corpus.Sentence) Sketch {
	if s == nil {
		return Sketch{SentenceID: -1}
	}
	return Sketch{
		SentenceID: s.ID,
		Heuristics: b.Registry.Sketch(s, b.MaxDepth),
	}
}

// Size returns the number of heuristics in the sketch.
func (s Sketch) Size() int { return len(s.Heuristics) }
