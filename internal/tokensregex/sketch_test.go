package tokensregex

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/textproc"
	"repro/internal/treematch"
)

// referenceSketch is the original map-deduplicated Grammar.Sketch, kept
// verbatim as the oracle for the allocation-light one. Its output is in
// (n, position) order.
func referenceSketch(g *Grammar, s *corpus.Sentence, maxDepth int) []grammar.Heuristic {
	if s == nil || len(s.Tokens) == 0 || maxDepth < 1 {
		return nil
	}
	seen := map[string]bool{}
	var out []grammar.Heuristic
	for n := 1; n <= maxDepth && n <= len(s.Tokens); n++ {
		for i := 0; i+n <= len(s.Tokens); i++ {
			phrase := s.Tokens[i : i+n]
			if n == 1 && g.SkipStopwordUnigrams && textproc.IsStopWord(phrase[0]) {
				continue
			}
			h := NewHeuristic(phrase)
			if seen[h.Key()] {
				continue
			}
			seen[h.Key()] = true
			out = append(out, h)
		}
	}
	return out
}

// referenceRegistrySketch is the original map-based Registry.Sketch over the
// reference tokensregex sketch.
func referenceRegistrySketch(grammars []grammar.Grammar, s *corpus.Sentence, maxDepth int) []grammar.Heuristic {
	seen := map[string]grammar.Heuristic{}
	for _, g := range grammars {
		var hs []grammar.Heuristic
		if tr, ok := g.(*Grammar); ok {
			hs = referenceSketch(tr, s, maxDepth)
		} else {
			hs = g.Sketch(s, maxDepth)
		}
		for _, h := range hs {
			seen[h.Key()] = h
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]grammar.Heuristic, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// sameSketch reports the first difference in key, depth or phrase between two
// sketches, compared position by position.
func sameSketch(t *testing.T, where string, got, want []grammar.Heuristic) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d heuristics, want %d", where, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key() != w.Key() || g.Depth() != w.Depth() {
			t.Fatalf("%s: [%d] = %s (depth %d), want %s (depth %d)", where, i, g.Key(), g.Depth(), w.Key(), w.Depth())
		}
		if gt, ok := g.(*Heuristic); ok && !slices.Equal(gt.Phrase(), w.(*Heuristic).Phrase()) {
			t.Fatalf("%s: [%d] phrase %q, want %q", where, i, gt.Phrase(), w.(*Heuristic).Phrase())
		}
	}
}

func byKey(hs []grammar.Heuristic) []grammar.Heuristic {
	out := slices.Clone(hs)
	slices.SortStableFunc(out, func(a, b grammar.Heuristic) int { return strings.Compare(a.Key(), b.Key()) })
	return out
}

// TestSketchMatchesReference pins the sketch to the reference on every
// generated dataset and on sentences whose tokens are not normalized.
func TestSketchMatchesReference(t *testing.T) {
	var sents []*corpus.Sentence
	for _, name := range datagen.AllDatasetNames() {
		c, err := datagen.ByName(name, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Preprocess(corpus.PreprocessOptions{})
		sents = append(sents, c.Sentences...)
	}
	sents = append(sents,
		&corpus.Sentence{ID: 0, Tokens: []string{"Shuttle", "'Tis-", "The", "to", "the", "Hotel", "shuttle"}},
		&corpus.Sentence{ID: 1, Tokens: []string{"the", "to", "'Tis-", "tis", "a", "*"}},
		&corpus.Sentence{ID: 2, Tokens: []string{"to"}},
	)
	for _, skip := range []bool{true, false} {
		g := &Grammar{SkipStopwordUnigrams: skip}
		for depth := 1; depth <= 6; depth++ {
			for _, s := range sents {
				want := byKey(referenceSketch(g, s, depth))
				sameSketch(t, s.Text+"|"+strings.Join(s.Tokens, " "), g.Sketch(s, depth), want)
			}
		}
	}
}

// TestRegistrySketchMatchesReference checks the registry's union of the
// tokensregex and treematch sketches against the map-based reference.
func TestRegistrySketchMatchesReference(t *testing.T) {
	c, err := datagen.ByName("directions", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	grammars := []grammar.Grammar{New(), treematch.New()}
	reg := grammar.NewRegistry(grammars...)
	for depth := 1; depth <= 5; depth++ {
		for _, s := range c.Sentences {
			got := reg.Sketch(s, depth)
			for i := 1; i < len(got); i++ {
				if got[i-1].Key() >= got[i].Key() {
					t.Fatalf("sentence %d: sketch not sorted and deduplicated at %s", s.ID, got[i].Key())
				}
			}
			sameSketch(t, s.Text, got, referenceRegistrySketch(grammars, s, depth))
		}
	}
}

// directionsSentences returns the first n preprocessed directions sentences.
func directionsSentences(tb testing.TB, n int) []*corpus.Sentence {
	tb.Helper()
	c, err := datagen.ByName("directions", 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c.Sentences[:min(n, c.Len())]
}

// TestSketchAllocations bounds the allocations of a depth-5 registry sketch:
// one per heuristic plus at most two per token (the key string of each start
// position) and a constant for the result slices.
func TestSketchAllocations(t *testing.T) {
	sents := directionsSentences(t, 2000)
	reg := grammar.NewRegistry(New())
	var heuristics, tokens int
	for _, s := range sents {
		heuristics += len(reg.Sketch(s, 5))
		tokens += len(s.Tokens)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range sents {
			reg.Sketch(s, 5)
		}
	})
	n := float64(len(sents))
	perSentence := allocs / n
	meanH, meanT := float64(heuristics)/n, float64(tokens)/n
	limit := meanH + 2*meanT + 4
	t.Logf("%.1f allocations per sentence for %.1f heuristics and %.1f tokens (limit %.1f)", perSentence, meanH, meanT, limit)
	if perSentence > limit {
		t.Errorf("Registry.Sketch makes %.1f allocations per sentence, want <= %.1f", perSentence, limit)
	}
}

var sketchSink []grammar.Heuristic

// BenchmarkSketch sketches a mix of directions sentences at depth 5; one
// operation is one sentence.
func BenchmarkSketch(b *testing.B) {
	sents := directionsSentences(b, 1000)
	g := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketchSink = g.Sketch(sents[i%len(sents)], 5)
	}
}
