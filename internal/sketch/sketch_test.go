package sketch

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
)

func buildCorpus() *corpus.Corpus {
	c := corpus.New("sk", "t")
	c.Add("What is the best way to get to SFO airport?", corpus.Positive)
	c.Add("Is there a shuttle to the hotel?", corpus.Positive)
	c.Add("Can I order a pizza tonight?", corpus.Negative)
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	return c
}

func TestBuildSingleSentence(t *testing.T) {
	reg := grammar.NewRegistry(tokensregex.New(), treematch.New())
	b := NewBuilder(reg, 3)
	c := buildCorpus()
	sk := b.Build(c.Sentence(0))
	if sk.SentenceID != 0 {
		t.Errorf("SentenceID = %d", sk.SentenceID)
	}
	if sk.Size() == 0 {
		t.Fatal("empty sketch")
	}
	for _, h := range sk.Heuristics {
		if !h.Matches(c.Sentence(0)) {
			t.Errorf("sketch heuristic %s does not match the sentence", h.Key())
		}
		if h.Depth() > 3 {
			t.Errorf("heuristic %s exceeds MaxDepth", h.Key())
		}
	}
	// Nil sentence yields an empty, invalid sketch.
	nilSk := b.Build(nil)
	if nilSk.SentenceID != -1 || nilSk.Size() != 0 {
		t.Errorf("nil sketch = %+v", nilSk)
	}
}

func TestBuilderDefaultDepth(t *testing.T) {
	reg := grammar.NewRegistry(tokensregex.New())
	b := NewBuilder(reg, 0)
	if b.MaxDepth != 10 {
		t.Errorf("default MaxDepth = %d, want 10", b.MaxDepth)
	}
}
