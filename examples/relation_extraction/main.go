// Relation extraction: label sentences that express a cause-effect relation
// using the TreeMatch grammar, whose rules range over the dependency parse
// tree (child '/', descendant '//' and conjunction '∧' operators) — the kind
// of heuristic that phrase-mining systems such as Snuba cannot express.
//
// The discovery loop runs through the public SDK's in-process solo labeler
// (darwin.NewSession, a one-annotator workspace): the same darwin.Labeler
// loop as the HTTP examples, with no server in between — the engine is
// dialed directly.
//
//	go run ./examples/relation_extraction
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/oracle"
	"repro/internal/treematch"
	"repro/pkg/darwin"
)

func main() {
	ctx := context.Background()
	c, err := datagen.ByName("cause-effect", 0.3, 5)
	if err != nil {
		log.Fatal(err)
	}
	// TreeMatch rules need dependency parse trees.
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	fmt.Println("corpus:", c)

	// Show what a TreeMatch rule looks like and what it matches.
	tm := treematch.New()
	rule, err := tm.Parse("caused/by")
	if err != nil {
		log.Fatal(err)
	}
	matched := grammar.Coverage(rule, c)
	fmt.Printf("\nseed rule %s matches %d sentences, e.g.:\n", rule, len(matched))
	for i, id := range matched {
		if i >= 3 {
			break
		}
		fmt.Printf("  - %s\n", c.Sentence(id).Text)
	}

	// Run Darwin with both grammars; the seed is the TreeMatch rule above.
	cfg := core.DefaultConfig()
	cfg.Budget = 80
	cfg.NumCandidates = 2000
	engine, err := core.New(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	lab, err := darwin.NewSession(engine, "cause-effect", darwin.Options{
		SeedRules: []string{"treematch:caused/by"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close(ctx)

	// The ground-truth oracle plays the annotator, judging the sample
	// sentences shown with each suggestion.
	annotator := oracle.NewGroundTruth(c)
	questions := 0
	for {
		sug, err := lab.Suggest(ctx)
		if errors.Is(err, darwin.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		ids := make([]int, 0, len(sug.Samples))
		for _, s := range sug.Samples {
			ids = append(ids, s.ID)
		}
		accept := annotator.Answer(oracle.Query{Coverage: ids, Samples: ids})
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: accept}); err != nil {
			log.Fatal(err)
		}
		questions++
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naccepted rules (%d) after %d questions:\n", len(rep.Accepted), rep.Questions)
	for _, rec := range rep.Accepted {
		fmt.Printf("  %-40s coverage=%d\n", rec.Rule, rec.Coverage)
	}
	positives := make(map[int]bool, len(rep.PositiveIDs))
	for _, id := range rep.PositiveIDs {
		positives[id] = true
	}
	fmt.Printf("\ncoverage of cause-effect sentences: %.2f\n", eval.CoverageOfSet(c, positives))
	fmt.Printf("precision of discovered set:        %.2f\n", eval.PrecisionOfSet(c, positives))

	// Print one parse tree so the reader can see what TreeMatch operates on.
	if len(matched) > 0 {
		s := c.Sentence(matched[0])
		fmt.Printf("\ndependency tree of %q:\n  %s\n", s.Text, s.Tree)
	}
}
