package workspace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/oracle"
	"repro/internal/tokensregex"
)

// goldenStep is one oracle interaction of the pinned solo run.
type goldenStep struct {
	key      string
	accept   bool
	coverage int
	benefit  string // Benefit formatted to 6 decimals (bit-identical floats)
}

// goldenTranscript was recorded from a one-annotator workspace after the
// loop moved to per-event seeding of the classifier and the sample RNG
// (directions corpus at scale 0.05, datagen seed 7, the engine of
// goldenEngine, workspace seed 42, budget 12, seed rule "best way to get
// to", ground-truth oracle). pkg/darwin replays the same transcript through
// the HTTP client and the router. Any change to it must be re-pinned in a
// dedicated commit that records the paper experiments before and after.
var goldenTranscript = []goldenStep{
	{"tokensregex:way to get to", true, 6, "1.385422"},
	{"tokensregex:best way to get", true, 5, "1.842029"},
	{"tokensregex:best way to", false, 67, "31.171959"},
	{"tokensregex:the best way to", false, 67, "31.171959"},
	{"tokensregex:best way to order", false, 25, "16.242205"},
	{"tokensregex:best way to check", false, 37, "14.929754"},
	{"tokensregex:to get to", true, 6, "0.000000"},
	{"tokensregex:get to", true, 6, "0.000000"},
	{"tokensregex:get", false, 51, "8.719565"},
	{"tokensregex:i get", false, 42, "8.719565"},
	{"tokensregex:can i get", false, 41, "8.249672"},
	{"tokensregex:can i get a", false, 41, "8.249672"},
}

var goldenPositives = []int{7, 75, 210, 211, 246, 262, 462, 499, 587}

// goldenEngine is the engine the transcript was recorded on (the
// configuration pkg/darwin's conformance suite serves).
func goldenEngine(t *testing.T) *core.Engine {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(c, core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 2,
		Budget:          30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWorkspaceMatchesGoldenReplay pins the loop end to end: a solo
// workspace answering through the ground-truth oracle must propose exactly
// the recorded rules with exactly the recorded statistics.
func TestWorkspaceMatchesGoldenReplay(t *testing.T) {
	eng := goldenEngine(t)
	ws, err := New(eng, "golden", "directions", Options{SeedRules: []string{seedRule}, Budget: 12, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Attach("solo"); err != nil {
		t.Fatal(err)
	}
	o := oracle.NewGroundTruth(eng.Corpus())
	for i, want := range goldenTranscript {
		sug, ok, err := ws.Suggest("solo")
		if err != nil || !ok {
			t.Fatalf("step %d: run ended early (want %q): %v", i, want.key, err)
		}
		if sug.Key != want.key {
			t.Fatalf("step %d: proposed %q, golden transcript has %q", i, sug.Key, want.key)
		}
		if sug.Coverage != want.coverage {
			t.Errorf("step %d (%s): coverage %d, want %d", i, sug.Key, sug.Coverage, want.coverage)
		}
		if got := fmt.Sprintf("%.6f", sug.Benefit); got != want.benefit {
			t.Errorf("step %d (%s): benefit %s, want %s", i, sug.Key, got, want.benefit)
		}
		var cov []int
		eng.WithIndexRead(func(ix *index.Index) { cov = ix.Coverage(sug.Key) })
		if accept := o.Answer(oracle.Query{Coverage: cov}); accept != want.accept {
			t.Fatalf("step %d (%s): oracle says %v, golden transcript %v", i, sug.Key, accept, want.accept)
		}
		if _, err := ws.Answer("solo", sug.Key, want.accept); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := ws.Suggest("solo"); ok {
		t.Error("workspace continued past the golden budget")
	}
	if got := ws.Report().Positives; !reflect.DeepEqual(got, goldenPositives) {
		t.Errorf("final positives %v, golden %v", got, goldenPositives)
	}
}
