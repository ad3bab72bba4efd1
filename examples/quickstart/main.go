// Quickstart: run Darwin end to end through the public SDK (pkg/darwin).
//
// This example shows the canonical deployment shape: an engine built once,
// served over the versioned /v2 HTTP API, and driven by a client that only
// speaks the darwin.Labeler interface — suggest a rule, judge the sample
// sentences, answer, repeat. A simulated annotator (the ground-truth oracle
// of §4.1) plays the human: it accepts a rule when at least 80% of the
// sample sentences shown with it are true positives, exactly the judgement
// call of Figure 2. Swap darwin.NewClient for darwin.NewSession and the same
// one-annotator workspace loop runs in-process against the engine,
// unchanged.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/pkg/darwin"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole pipeline; the test drives it as an end-to-end SDK check.
func run(out io.Writer) error {
	ctx := context.Background()

	// 1. A corpus of hotel-guest questions; positives ask for directions or
	//    transportation (Example 1 of the paper). In a real deployment this
	//    would be loaded with corpus.LoadJSONL.
	c, err := datagen.ByName("directions", 0.1, 42)
	if err != nil {
		return err
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: false})
	fmt.Fprintln(out, "corpus:", c)

	// 2. Build the engine once and serve it over HTTP — the same darwind
	//    stack, embedded. Every labeler created against the server shares
	//    this engine's index and preprocessing.
	cfg := core.DefaultConfig()
	cfg.Budget = 60
	cfg.NumCandidates = 1500
	cfg.Seed = 42
	cfg.Classifier = classifier.Config{Epochs: 10, LearningRate: 0.3, L2: 1e-4, Seed: 42}
	cfg.Embedding = embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: 42}
	engine, err := core.New(c, cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{}, &server.Dataset{Name: "directions", Engine: engine})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 3. Open a labeler through the SDK: one seed rule, default budget.
	client := darwin.NewClient(ts.URL, "")
	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    60,
		Seed:      42,
	})
	if err != nil {
		return err
	}
	defer lab.Close(ctx)

	// 4. The interactive loop of Algorithm 1, with the ground-truth oracle
	//    standing in for the human: it judges the sample sentences shown
	//    alongside each suggestion.
	annotator := oracle.NewGroundTruth(c)
	for {
		sug, err := lab.Suggest(ctx)
		if errors.Is(err, darwin.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			return err
		}
		ids := make([]int, 0, len(sug.Samples))
		for _, s := range sug.Samples {
			ids = append(ids, s.ID)
		}
		accept := annotator.Answer(oracle.Query{Coverage: ids, Samples: ids})
		verdict := "rejected"
		if accept {
			verdict = "ACCEPTED"
		}
		fmt.Fprintf(out, "  question %2d: %-40s (%d sentences) -> %s\n",
			sug.Question, sug.Rule, sug.Coverage, verdict)
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: accept}); err != nil {
			return err
		}
	}

	// 5. Inspect the result: accepted rules, discovered positives, recall.
	rep, err := lab.Report(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\naccepted %d rules with %d questions:\n", len(rep.Accepted), rep.Questions)
	for _, rec := range rep.Accepted {
		fmt.Fprintf(out, "  %s\n", rec.Rule)
	}
	positives := make(map[int]bool, len(rep.PositiveIDs))
	for _, id := range rep.PositiveIDs {
		positives[id] = true
	}
	fmt.Fprintf(out, "\ndiscovered %d positive sentences\n", rep.Positives)
	fmt.Fprintf(out, "coverage (recall of gold positives): %.2f\n", eval.CoverageOfSet(c, positives))
	fmt.Fprintf(out, "precision of discovered set:         %.2f\n", eval.PrecisionOfSet(c, positives))
	return nil
}
