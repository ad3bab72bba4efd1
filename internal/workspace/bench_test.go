package workspace

import (
	"sync"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
)

// benchConfig mirrors the interactive serving configuration: the paper's 10K
// candidate hierarchy over a TokensRegex index, embeddings disabled so the
// setup cost stays in index construction and the measured cost in the
// hierarchy + traversal hot path.
func benchConfig() core.Config {
	return core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    8,
		NumCandidates:   10000,
		MinRuleCoverage: 2,
		Budget:          1 << 30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Seed:            1,
	}
}

var (
	benchOnce   sync.Once
	benchEng    *core.Engine
	benchEngErr error
)

// benchEngine builds (once) a shared engine over the bundled datagen
// directions corpus at half scale (~7.6K sentences).
func benchEngine(b *testing.B) *core.Engine {
	b.Helper()
	benchOnce.Do(func() {
		c, err := datagen.ByName("directions", 0.5, 7)
		if err != nil {
			benchEngErr = err
			return
		}
		benchEng, benchEngErr = core.New(c, benchConfig())
	})
	if benchEngErr != nil {
		b.Fatal(benchEngErr)
	}
	return benchEng
}

// benchSteps times interactive steps (Suggest + Answer) of a solo labeler —
// a one-annotator workspace without a journal — answering accept(i) to the
// i-th suggestion and starting a fresh workspace whenever one runs dry.
func benchSteps(b *testing.B, accept func(i int) bool) {
	e := benchEngine(b)
	newSolo := func() *Workspace {
		ws, err := New(e, "bench", "directions", Options{SeedRules: []string{"best way to get to"}, Budget: 1 << 30, Seed: 1}, nil)
		if err == nil {
			err = ws.Attach("bench")
		}
		if err != nil {
			b.Fatal(err)
		}
		return ws
	}
	ws := newSolo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug, ok, err := ws.Suggest("bench")
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			ws = newSolo()
			b.StartTimer()
			continue
		}
		if _, err := ws.Answer("bench", sug.Key, accept(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionNext measures one interactive step on a reject-heavy solo
// labeler, the hot path an annotator waits on. Roughly one in seven
// suggestions is accepted, matching observed interactive accept rates.
func BenchmarkSessionNext(b *testing.B) {
	benchSteps(b, func(i int) bool { return i%7 == 0 })
}

// BenchmarkSessionNextRejects measures the pure reject path: every answer is
// NO, so the positive set never changes. This is the path incremental
// hierarchy reuse targets.
func BenchmarkSessionNextRejects(b *testing.B) {
	benchSteps(b, func(int) bool { return false })
}
