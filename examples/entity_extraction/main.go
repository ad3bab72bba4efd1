// Entity extraction: find sentences that mention musicians, starting from a
// couple of labeled example sentences instead of a seed rule, and compare
// the three traversal strategies (LocalSearch, UniversalSearch,
// HybridSearch) — the §4.3 experiment in miniature, driven through the
// public SDK's in-process solo labeler (darwin.NewSession, a one-annotator
// workspace that steps the engine's configured traversal).
//
//	go run ./examples/entity_extraction
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
	"repro/internal/oracle"
	"repro/pkg/darwin"
)

func main() {
	ctx := context.Background()
	c, err := datagen.ByName("musicians", 0.15, 11)
	if err != nil {
		log.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	fmt.Println("corpus:", c)

	// Seed with two positive example sentences ("a couple of labeled
	// instances" — the alternative initialization of Algorithm 1).
	positives := c.Positives()
	seedIDs := positives[:2]
	fmt.Println("seed sentences:")
	for _, id := range seedIDs {
		fmt.Printf("  - %s\n", c.Sentence(id).Text)
	}

	annotator := oracle.NewGroundTruth(c)
	for _, traversal := range []string{"local", "universal", "hybrid"} {
		cfg := core.DefaultConfig()
		cfg.Traversal = traversal
		cfg.Budget = 60
		cfg.NumCandidates = 1500
		engine, err := core.New(c, cfg)
		if err != nil {
			log.Fatal(err)
		}
		lab, err := darwin.NewSession(engine, "musicians", darwin.Options{
			SeedPositiveIDs: seedIDs,
		})
		if err != nil {
			log.Fatal(err)
		}
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
		}
		rep, err := lab.Report(ctx)
		if err != nil {
			log.Fatal(err)
		}
		found := make(map[int]bool, len(rep.PositiveIDs))
		for _, id := range rep.PositiveIDs {
			found[id] = true
		}
		cov := eval.CoverageOfSet(c, found)
		prec := eval.PrecisionOfSet(c, found)
		fmt.Printf("\nDarwin(%s): %d questions, %d rules, coverage=%.2f precision=%.2f\n",
			traversal, rep.Questions, len(rep.Accepted), cov, prec)
		for i, rec := range rep.Accepted {
			if i >= 8 {
				fmt.Printf("  ... and %d more rules\n", len(rep.Accepted)-8)
				break
			}
			fmt.Printf("  %-36s coverage=%d\n", rec.Rule, rec.Coverage)
		}
		_ = lab.Close(ctx)
	}
}
