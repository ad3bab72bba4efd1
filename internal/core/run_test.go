package core_test

import (
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/traversal"
	"repro/internal/workspace"
)

// These tests drive the engine end to end through workspace.Run, the batch
// driver of the one discovery loop (internal/workspace imports core, hence
// the external test package).

func TestEngineErrors(t *testing.T) {
	if _, err := core.New(nil, core.DefaultConfig()); err == nil {
		t.Error("nil corpus should error")
	}
	if _, err := core.New(corpus.New("empty", "t"), core.DefaultConfig()); err == nil {
		t.Error("empty corpus should error")
	}

	c := core.SmallCorpus(t, 0.03)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workspace.Run(e, workspace.RunOptions{}); err == nil {
		t.Error("missing oracle should error")
	}
	if _, err := workspace.Run(e, workspace.RunOptions{Oracle: oracle.NewGroundTruth(c), SeedRules: []string{"@@@ ???"}}); err == nil {
		t.Error("unparseable seed rule should error")
	}
	if _, err := workspace.Run(e, workspace.RunOptions{Oracle: oracle.NewGroundTruth(c), SeedRules: []string{"zzzznonexistenttoken"}}); err == nil {
		t.Error("zero-coverage seed with no positives should error")
	}
}

func TestEngineRunHybridDiscoversPositives(t *testing.T) {
	c := core.SmallCorpus(t, 0.06) // ~900 sentences, ~35 positives
	cfg := core.FastConfig("hybrid")
	cfg.Budget = 50
	e, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewRecording(oracle.NewGroundTruth(c))
	discovered := map[int]bool{}
	var curve eval.Curve
	rep, err := workspace.Run(e, workspace.RunOptions{
		SeedRules: []string{"best way to get to"},
		Oracle:    o,
		OnQuery: func(rec core.RuleRecord, scores []float64) {
			for _, id := range rec.AddedIDs {
				discovered[id] = true
			}
			curve.Points = append(curve.Points, eval.CurvePoint{
				Questions: rec.Question,
				Value:     eval.CoverageOfSet(c, discovered),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The per-question coverage curve is monotone non-decreasing.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Value < curve.Points[i-1].Value {
			t.Errorf("coverage curve decreased at question %d", curve.Points[i].Questions)
		}
	}
	if rep.Questions == 0 || rep.Questions > cfg.Budget {
		t.Errorf("questions = %d", rep.Questions)
	}
	if o.Count() != rep.Questions {
		t.Errorf("oracle saw %d queries, report says %d", o.Count(), rep.Questions)
	}
	cov := eval.CoverageOfSet(c, rep.Positives)
	if cov < 0.5 {
		t.Errorf("coverage after %d questions = %.2f, want >= 0.5 (accepted rules: %v)",
			rep.Questions, cov, rep.AcceptedRuleStrings())
	}
	// Precision of the discovered set must be high (oracle only accepts >=80%
	// precise rules).
	if p := eval.PrecisionOfSet(c, rep.Positives); p < 0.7 {
		t.Errorf("precision of discovered set = %.2f", p)
	}
	// The seed rule is recorded as accepted with question number 0.
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Errorf("seed rule not recorded: %+v", rep.Accepted)
	}
	// History is consistent: accepted records add IDs, rejected add none.
	for _, rec := range rep.History {
		if !rec.Accepted && len(rec.AddedIDs) > 0 {
			t.Errorf("rejected rule %q added positives", rec.Rule)
		}
	}
	if len(rep.PositiveIDs()) != len(rep.Positives) {
		t.Error("PositiveIDs length mismatch")
	}
}

func TestEngineSeedPositiveIDs(t *testing.T) {
	c := core.SmallCorpus(t, 0.04)
	cfg := core.FastConfig("local")
	cfg.Budget = 20
	e, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed with two gold-positive sentences ("a couple of labeled
	// instances"), no seed rule.
	pos := c.Positives()
	if len(pos) < 2 {
		t.Fatal("test corpus has too few positives")
	}
	repo, err := workspace.Run(e, workspace.RunOptions{
		SeedPositiveIDs: []int{pos[0], pos[1]},
		Oracle:          oracle.NewGroundTruth(c),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Positives) < 2 {
		t.Errorf("positives shrank below the seed: %d", len(repo.Positives))
	}
	if repo.Questions == 0 {
		t.Error("no questions asked")
	}
	// Out-of-range seed IDs are ignored.
	if _, err := workspace.Run(e, workspace.RunOptions{SeedPositiveIDs: []int{-1, 1 << 30}, Oracle: oracle.NewGroundTruth(c)}); err == nil {
		t.Error("only-invalid seed IDs should error (empty P)")
	}
}

func TestEngineTraversalVariantsAndCustom(t *testing.T) {
	c := core.SmallCorpus(t, 0.04)
	for _, trav := range []string{"local", "universal", "hybrid"} {
		cfg := core.FastConfig(trav)
		cfg.Budget = 15
		e, err := core.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		repo, err := workspace.Run(e, workspace.RunOptions{
			SeedRules: []string{"shuttle to"},
			Oracle:    oracle.NewGroundTruth(c),
		})
		if err != nil {
			t.Fatalf("%s: %v", trav, err)
		}
		if repo.Questions == 0 {
			t.Errorf("%s asked no questions", trav)
		}
	}

	// A custom traversal (the HighC-style "max coverage" selector) plugs in
	// through RunOptions.Traversal and replaces the configured strategy.
	cfg := core.FastConfig("hybrid")
	cfg.Budget = 10
	e, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := workspace.Run(e, workspace.RunOptions{
		SeedRules: []string{"shuttle to"},
		Oracle:    oracle.NewGroundTruth(c),
		Traversal: maxCoverageTraversal{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Questions == 0 {
		t.Fatal("custom traversal asked no questions")
	}
}

// maxCoverageTraversal proposes the unqueried rule with the largest coverage.
type maxCoverageTraversal struct{}

func (maxCoverageTraversal) Name() string { return "maxcov" }
func (maxCoverageTraversal) Next(st *traversal.State) (string, bool) {
	best, bestCov := "", -1
	for _, key := range st.Hierarchy.NonRootKeys() {
		if st.Queried[key] {
			continue
		}
		if n := st.Hierarchy.Node(key); n != nil && n.Bits.Count() > bestCov {
			best, bestCov = key, n.Bits.Count()
		}
	}
	return best, best != ""
}
func (maxCoverageTraversal) Feedback(*traversal.State, string, bool) {}
func (maxCoverageTraversal) Reseed(*traversal.State, string)         {}

func TestEngineLazyScoringMatchesEagerOnAcceptance(t *testing.T) {
	c := core.SmallCorpus(t, 0.03)
	run := func(lazy bool) *core.Report {
		cfg := core.FastConfig("hybrid")
		cfg.Budget = 12
		cfg.LazyScoring = lazy
		e, err := core.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		repo, err := workspace.Run(e, workspace.RunOptions{SeedRules: []string{"best way to get to"}, Oracle: oracle.NewGroundTruth(c)})
		if err != nil {
			t.Fatal(err)
		}
		return repo
	}
	lazy := run(true)
	eager := run(false)
	// Lazy scoring is an approximation; it must still discover a comparable
	// number of positives (within a factor of 2 on this small corpus).
	if len(lazy.Positives)*2 < len(eager.Positives) {
		t.Errorf("lazy scoring found %d positives vs %d eager", len(lazy.Positives), len(eager.Positives))
	}
}

func TestEngineTreeMatchRulesParse(t *testing.T) {
	c, err := datagen.ByName("cause-effect", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.NumCandidates = 300
	cfg.SketchDepth = 3
	cfg.Budget = 10
	cfg.Classifier = classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: 1}
	cfg.Embedding = embedding.Config{Dim: 16, Window: 3, MinCount: 2, Seed: 1}
	e, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both grammars are registered by default: a TreeMatch seed parses.
	h, err := e.ParseRule("treematch:caused/by")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if !strings.Contains(h.Key(), "treematch") {
		t.Errorf("wrong grammar: %s", h.Key())
	}
	repo, err := workspace.Run(e, workspace.RunOptions{SeedRules: []string{"treematch:caused/by"}, Oracle: oracle.NewGroundTruth(c)})
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Positives) == 0 {
		t.Error("TreeMatch seed produced no positives")
	}
}
