// Package tokensregex implements the TokensRegex heuristic grammar of the
// paper (Example 2): regular expressions over tokens. A heuristic is a
// contiguous token phrase, optionally containing single-token wildcards '*'
// (the grammar's A -> A*A rule restricted to one-token gaps, which is the
// form annotators actually use). A sentence satisfies the heuristic if the
// phrase occurs contiguously in its token sequence.
package tokensregex

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/textproc"
)

// GrammarName is the registry name of this grammar.
const GrammarName = "tokensregex"

// Wildcard is the single-token wildcard terminal.
const Wildcard = "*"

// Heuristic is a TokensRegex labeling heuristic: a contiguous token phrase.
type Heuristic struct {
	phrase []string
	key    string
}

var _ grammar.Heuristic = (*Heuristic)(nil)

// NewHeuristic builds a heuristic from a token phrase. Tokens are normalized;
// empty phrases are rejected by Parse, but NewHeuristic tolerates them (the
// result matches nothing).
func NewHeuristic(phrase []string) *Heuristic {
	norm := make([]string, len(phrase))
	for i, t := range phrase {
		if t == Wildcard {
			norm[i] = Wildcard
			continue
		}
		norm[i] = textproc.Normalize(t)
	}
	return &Heuristic{phrase: norm, key: GrammarName + ":" + strings.Join(norm, " ")}
}

// Phrase returns a copy of the heuristic's token phrase.
func (h *Heuristic) Phrase() []string {
	out := make([]string, len(h.phrase))
	copy(out, h.phrase)
	return out
}

// Key implements grammar.Heuristic.
func (h *Heuristic) Key() string { return h.key }

// String implements grammar.Heuristic.
func (h *Heuristic) String() string { return "'" + strings.Join(h.phrase, " ") + "'" }

// GrammarName implements grammar.Heuristic.
func (h *Heuristic) GrammarName() string { return GrammarName }

// Depth implements grammar.Heuristic: one derivation rule per token.
func (h *Heuristic) Depth() int { return len(h.phrase) }

// Matches reports whether the phrase occurs contiguously in the sentence's
// tokens. Wildcard positions match any single token.
func (h *Heuristic) Matches(s *corpus.Sentence) bool {
	if s == nil || len(h.phrase) == 0 {
		return false
	}
	toks := s.Tokens
	n, m := len(toks), len(h.phrase)
	if m > n {
		return false
	}
	for i := 0; i+m <= n; i++ {
		ok := true
		for j := 0; j < m; j++ {
			if h.phrase[j] != Wildcard && toks[i+j] != h.phrase[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Parents returns the generalizations obtained by dropping the first or last
// token of the phrase. Single-token heuristics generalize to the root.
func (h *Heuristic) Parents() []grammar.Heuristic {
	if len(h.phrase) <= 1 {
		return []grammar.Heuristic{grammar.Root()}
	}
	dropLast := NewHeuristic(h.phrase[:len(h.phrase)-1])
	dropFirst := NewHeuristic(h.phrase[1:])
	if dropLast.Key() == dropFirst.Key() {
		return []grammar.Heuristic{dropLast}
	}
	return []grammar.Heuristic{dropLast, dropFirst}
}

// Grammar is the TokensRegex grammar.
type Grammar struct {
	// SkipStopwordUnigrams drops depth-1 heuristics that are pure stop words
	// ("the", "to", ...) from sketches; such rules are never precise and
	// inflate the index. Default true via New.
	SkipStopwordUnigrams bool
}

var _ grammar.Grammar = (*Grammar)(nil)

// New returns the TokensRegex grammar with default settings.
func New() *Grammar {
	return &Grammar{SkipStopwordUnigrams: true}
}

// Name implements grammar.Grammar.
func (g *Grammar) Name() string { return GrammarName }

// Sketch enumerates every contiguous n-gram of the sentence with 1 <= n <=
// maxDepth (the derivation sketch of Figure 5), deduplicated and sorted by
// key. Phrases share the sentence's token slice, and the keys of all n-grams
// starting at one position are prefixes of a single string, so a sketch costs
// about one allocation per heuristic.
func (g *Grammar) Sketch(s *corpus.Sentence, maxDepth int) []grammar.Heuristic {
	if s == nil || len(s.Tokens) == 0 || maxDepth < 1 {
		return nil
	}
	toks := normalized(s.Tokens)
	hs := make([]*Heuristic, 0, ngramCount(len(toks), maxDepth))
	for i := range toks {
		end := min(i+maxDepth, len(toks))
		size := len(GrammarName) + end - i
		for _, t := range toks[i:end] {
			size += len(t)
		}
		var b strings.Builder
		b.Grow(size)
		b.WriteString(GrammarName)
		b.WriteByte(':')
		for j, t := range toks[i:end] {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t)
		}
		key := b.String()
		off := len(GrammarName)
		for j := i; j < end; j++ {
			off += 1 + len(toks[j]) // the ':' or ' ' before the token, then the token
			// Stop words are looked up by the raw token, so an unnormalized
			// "The" still yields its unigram.
			if j == i && g.SkipStopwordUnigrams && textproc.IsStopWord(s.Tokens[i]) {
				continue
			}
			hs = append(hs, &Heuristic{phrase: toks[i : j+1 : j+1], key: key[:off]})
		}
	}
	slices.SortFunc(hs, func(a, b *Heuristic) int { return strings.Compare(a.key, b.key) })
	hs = slices.CompactFunc(hs, func(a, b *Heuristic) bool { return a.key == b.key })
	out := make([]grammar.Heuristic, len(hs))
	for i, h := range hs {
		out[i] = h
	}
	return out
}

// normalized returns toks itself when every token is already in normal form,
// as corpus.Preprocess leaves them, and a normalized copy otherwise.
func normalized(toks []string) []string {
	for i, t := range toks {
		if textproc.Normalize(t) == t {
			continue
		}
		out := make([]string, len(toks))
		copy(out, toks[:i])
		for j := i; j < len(toks); j++ {
			out[j] = textproc.Normalize(toks[j])
		}
		return out
	}
	return toks
}

// ngramCount is the number of n-grams with 1 <= n <= maxDepth in a sequence
// of length tokens.
func ngramCount(length, maxDepth int) int {
	d := min(length, maxDepth)
	return d*length - d*(d-1)/2
}

// Parse parses a phrase specification such as "best way to" or "shuttle * the
// hotel" (with single-token wildcards).
func (g *Grammar) Parse(spec string) (grammar.Heuristic, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("tokensregex: empty rule")
	}
	var tok textproc.Tokenizer
	fields := strings.Fields(spec)
	var phrase []string
	for _, f := range fields {
		if f == Wildcard {
			phrase = append(phrase, Wildcard)
			continue
		}
		words := tok.TokenizeWords(f)
		if len(words) == 0 {
			continue
		}
		phrase = append(phrase, words...)
	}
	if len(phrase) == 0 {
		return nil, fmt.Errorf("tokensregex: rule %q has no tokens", spec)
	}
	return NewHeuristic(phrase), nil
}

// Specialize extends the phrase by one adjacent token of the witness sentence
// (to the left or to the right of an occurrence), producing the children of h
// that still match s. Specializing the root yields the depth-1 sketch.
func (g *Grammar) Specialize(h grammar.Heuristic, s *corpus.Sentence, maxDepth int) []grammar.Heuristic {
	if s == nil || len(s.Tokens) == 0 {
		return nil
	}
	if grammar.IsRoot(h) {
		return g.Sketch(s, 1)
	}
	th, ok := h.(*Heuristic)
	if !ok {
		return nil
	}
	if maxDepth > 0 && th.Depth() >= maxDepth {
		return nil
	}
	toks := s.Tokens
	m := len(th.phrase)
	seen := map[string]bool{}
	var out []grammar.Heuristic
	for i := 0; i+m <= len(toks); i++ {
		match := true
		for j := 0; j < m; j++ {
			if th.phrase[j] != Wildcard && toks[i+j] != th.phrase[j] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if i > 0 {
			ext := append([]string{toks[i-1]}, th.phrase...)
			c := NewHeuristic(ext)
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
		if i+m < len(toks) {
			ext := append(append([]string{}, th.phrase...), toks[i+m])
			c := NewHeuristic(ext)
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
	}
	return out
}
