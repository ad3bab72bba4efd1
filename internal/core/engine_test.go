package core

import (
	"testing"

	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
)

// testCorpus generates a small directions corpus (positive rate 3.8%).
func testCorpus(t *testing.T, scale float64) *corpus.Corpus {
	t.Helper()
	c, err := datagen.ByName("directions", scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastConfig returns an engine configuration small enough for unit tests.
func fastConfig(trav string) Config {
	return Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 2,
		Budget:          30,
		Traversal:       trav,
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	}
}

func TestDefaultConfigAndWithDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Budget != 100 || cfg.Traversal != "hybrid" || cfg.NumCandidates != 10000 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	resolved, reg := Config{}.withDefaults()
	if resolved.Budget != 100 || resolved.SketchDepth != 5 {
		t.Errorf("withDefaults did not fill: %+v", resolved)
	}
	if !resolved.UseParseTrees {
		t.Error("TreeMatch default should force parse trees")
	}
	if len(reg.Grammars()) != 2 {
		t.Errorf("default registry has %d grammars", len(reg.Grammars()))
	}
}
