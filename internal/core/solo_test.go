package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/traversal"
	"repro/internal/workspace"
)

// These tests step a solo labeler — a one-annotator workspace without a
// journal, the loop behind /v2 session mode and darwin.NewSession — on the
// engine, the way an interactive client does.

const solo = "solo"

// newSolo starts a one-annotator workspace; zero budget and seed take the
// engine defaults, as the serving layer resolves them.
func newSolo(t *testing.T, e *core.Engine, opts workspace.Options) (*workspace.Workspace, error) {
	t.Helper()
	if opts.Budget == 0 {
		opts.Budget = e.DefaultBudget()
	}
	if opts.Seed == 0 {
		opts.Seed = e.DefaultSeed()
	}
	ws, err := workspace.New(e, "solo", "directions", opts, nil)
	if err != nil {
		return nil, err
	}
	if err := ws.Attach(solo); err != nil {
		t.Fatal(err)
	}
	return ws, nil
}

// answerWithOracle resolves the pending suggestion through an oracle, asking
// it about the rule's full coverage exactly as workspace.Run does.
func answerWithOracle(t *testing.T, e *core.Engine, ws *workspace.Workspace, o oracle.Oracle) (core.RuleRecord, bool) {
	t.Helper()
	sug, ok, err := ws.Suggest(solo)
	if err != nil {
		t.Fatalf("Suggest: %v", err)
	}
	if !ok {
		return core.RuleRecord{}, false
	}
	// The oracle reads the corpus, which a concurrent ingest grows under
	// the write lock.
	var accepted bool
	e.WithIndexRead(func(ix *index.Index) {
		accepted = o.Answer(oracle.Query{Coverage: ix.Coverage(sug.Key), Samples: sug.SampleIDs})
	})
	rec, err := ws.Answer(solo, sug.Key, accepted)
	if err != nil {
		t.Fatalf("Answer(%q): %v", sug.Key, err)
	}
	return rec.RuleRecord, true
}

// driveSolo plays a whole run against an oracle and returns the keys
// proposed, in order.
func driveSolo(t *testing.T, e *core.Engine, ws *workspace.Workspace, o oracle.Oracle) []string {
	t.Helper()
	var keys []string
	for {
		rec, ok := answerWithOracle(t, e, ws, o)
		if !ok {
			break
		}
		keys = append(keys, rec.Key)
	}
	return keys
}

func TestSessionStepwiseAcceptReject(t *testing.T) {
	c := core.SmallCorpus(t, 0.06)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := newSolo(t, e, workspace.Options{SeedRules: []string{"best way to get to"}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Answer before Suggest is an error.
	if _, err := ws.Answer(solo, "anything", true); err == nil {
		t.Error("Answer with no pending suggestion should error")
	}

	sug, ok, err := ws.Suggest(solo)
	if err != nil || !ok {
		t.Fatalf("no first suggestion: ok=%v err=%v", ok, err)
	}
	if sug.Key == "" || sug.Rule == "" || sug.Coverage <= 0 || len(sug.SampleIDs) == 0 {
		t.Fatalf("incomplete suggestion: %+v", sug)
	}
	// Suggest is idempotent while unanswered.
	if again, ok, _ := ws.Suggest(solo); !ok || again.Key != sug.Key {
		t.Errorf("repeated Suggest returned %q, want pending %q", again.Key, sug.Key)
	}
	// Answering a different key is rejected and keeps the suggestion pending.
	if _, err := ws.Answer(solo, "not-the-key", true); err == nil {
		t.Error("mismatched answer key should error")
	}

	before := len(ws.PositivesMap())
	rec, err := ws.Answer(solo, sug.Key, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Accepted || rec.Question != 1 || rec.Key != sug.Key {
		t.Errorf("bad accept record: %+v", rec)
	}
	after := len(ws.PositivesMap())
	if after < before {
		t.Errorf("positives shrank after accept: %d -> %d", before, after)
	}
	if rec.PositivesAfter != after {
		t.Errorf("PositivesAfter = %d, want %d", rec.PositivesAfter, after)
	}

	// A rejected rule must not change P.
	sug2, ok, err := ws.Suggest(solo)
	if err != nil || !ok {
		t.Fatalf("no second suggestion: ok=%v err=%v", ok, err)
	}
	rec2, err := ws.Answer(solo, sug2.Key, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Accepted || len(rec2.AddedIDs) != 0 || len(ws.PositivesMap()) != after {
		t.Errorf("reject changed the positive set: %+v", rec2)
	}

	rep := ws.Report()
	if rep.Questions != 2 || len(rep.History) != 2 {
		t.Errorf("report questions = %d history = %d", rep.Questions, len(rep.History))
	}
	// The seed rule is recorded as accepted with question number 0.
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Errorf("seed rule not recorded: %+v", rep.Accepted)
	}
	// The report is a snapshot: mutating it does not affect the workspace.
	rep.Positives[0] = -1
	if ws.Report().Positives[0] == -1 {
		t.Error("report snapshot shares the workspace's positive set")
	}
}

func TestSessionBudgetExhaustion(t *testing.T) {
	c := core.SmallCorpus(t, 0.05)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	ws, err := newSolo(t, e, workspace.Options{SeedRules: []string{"best way to get to"}, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Budget() != budget {
		t.Fatalf("Budget() = %d, want %d", ws.Budget(), budget)
	}
	n := 0
	for {
		sug, ok, err := ws.Suggest(solo)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if _, err := ws.Answer(solo, sug.Key, n%2 == 0); err != nil {
			t.Fatal(err)
		}
		n++
		if n > budget {
			t.Fatalf("labeler exceeded its budget of %d", budget)
		}
	}
	if n != budget {
		t.Fatalf("labeler stopped after %d questions, want %d", n, budget)
	}
	questions, _, done := ws.Stats()
	if !done {
		t.Error("Stats reports not done after budget exhaustion")
	}
	if _, ok, _ := ws.Suggest(solo); ok {
		t.Error("Suggest returned a suggestion after budget exhaustion")
	}
	if questions != budget {
		t.Errorf("questions = %d, want %d", questions, budget)
	}
}

func TestSessionDeterministicReplay(t *testing.T) {
	c := core.SmallCorpus(t, 0.05)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) ([]string, []int) {
		ws, err := newSolo(t, e, workspace.Options{
			SeedRules: []string{"best way to get to"},
			Budget:    8,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := driveSolo(t, e, ws, oracle.NewGroundTruth(c))
		return keys, ws.Report().Positives
	}
	keys1, pos1 := run(42)
	keys2, pos2 := run(42)
	if !reflect.DeepEqual(keys1, keys2) {
		t.Errorf("same seed proposed different rule sequences:\n%v\n%v", keys1, keys2)
	}
	if !reflect.DeepEqual(pos1, pos2) {
		t.Errorf("same seed discovered different positive sets: %d vs %d ids", len(pos1), len(pos2))
	}
}

// TestSessionMatchesRun pins the single loop: a labeler driven by an oracle
// step by step must reproduce exactly what the batch workspace.Run produces
// on an identical engine.
func TestSessionMatchesRun(t *testing.T) {
	cfg := core.FastConfig("hybrid")
	cfg.Budget = 12

	cA := core.SmallCorpus(t, 0.05)
	eA, err := core.New(cA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repRun, err := workspace.Run(eA, workspace.RunOptions{SeedRules: []string{"best way to get to"}, Oracle: oracle.NewGroundTruth(cA)})
	if err != nil {
		t.Fatal(err)
	}

	cB := core.SmallCorpus(t, 0.05)
	eB, err := core.New(cB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := newSolo(t, eB, workspace.Options{SeedRules: []string{"best way to get to"}})
	if err != nil {
		t.Fatal(err)
	}
	keys := driveSolo(t, eB, ws, oracle.NewGroundTruth(cB))
	rep := ws.Report()

	var runKeys []string
	for _, rec := range repRun.History {
		runKeys = append(runKeys, rec.Key)
	}
	if !reflect.DeepEqual(runKeys, keys) {
		t.Errorf("proposals diverged:\nrun:      %v\nstepwise: %v", runKeys, keys)
	}
	if repRun.Questions != rep.Questions {
		t.Errorf("questions: run=%d stepwise=%d", repRun.Questions, rep.Questions)
	}
	var accepted []string
	for _, rec := range rep.Accepted {
		accepted = append(accepted, rec.Rule)
	}
	if !reflect.DeepEqual(repRun.AcceptedRuleStrings(), accepted) {
		t.Errorf("accepted rules diverged:\nrun:      %v\nstepwise: %v", repRun.AcceptedRuleStrings(), accepted)
	}
	if !reflect.DeepEqual(repRun.PositiveIDs(), rep.Positives) {
		t.Errorf("positive sets diverged: run=%d stepwise=%d ids", len(repRun.PositiveIDs()), len(rep.Positives))
	}
}

// TestConcurrentSessionsSharedEngine steps many workspaces in parallel on
// one shared engine, first alone and then while the corpus grows by live
// ingest; under -race this verifies the documented lock discipline.
func TestConcurrentSessionsSharedEngine(t *testing.T) {
	c := core.SmallCorpus(t, 0.05)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize both seed rules in the shared index up front: the index
	// grows monotonically when a workspace seeds a rule it does not contain
	// yet, so pre-materializing keeps every worker's candidate space
	// identical regardless of interleaving.
	for _, rule := range []string{"best way to get to", "shuttle to"} {
		if _, _, err := e.MaterializeRule(rule); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	type result struct {
		keys []string
		pos  []int
	}
	// step runs every worker concurrently, plus extra alongside them.
	step := func(extra func()) []result {
		results := make([]result, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Half the workspaces share a seed (their results must agree
				// on a static corpus); the rest vary seed rules and random
				// seeds to shake the lock paths.
				seedRule := "best way to get to"
				if w%4 == 3 {
					seedRule = "shuttle to"
				}
				ws, err := newSolo(t, e, workspace.Options{SeedRules: []string{seedRule}, Budget: 5, Seed: int64(1 + w%2)})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				keys := driveSolo(t, e, ws, oracle.NewGroundTruth(c))
				results[w] = result{keys: keys, pos: ws.Report().Positives}
			}(w)
		}
		if extra != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				extra()
			}()
		}
		wg.Wait()
		for w, r := range results {
			if len(r.pos) == 0 {
				t.Errorf("worker %d discovered no positives", w)
			}
		}
		return results
	}

	// Workspaces 0 and 4 run the identical configuration concurrently;
	// workspace isolation demands identical outcomes.
	static := step(nil)
	if !reflect.DeepEqual(static[0], static[4]) {
		t.Errorf("identically-seeded concurrent workspaces diverged:\n%v\n%v", static[0], static[4])
	}

	// Again while live ingest grows the corpus and index under the workers.
	before := e.CorpusLen()
	step(func() {
		for b := 0; b < 4; b++ {
			batch := []ingest.Sentence{
				{Text: fmt.Sprintf("best way to get to platform %d", b), Label: 1},
				{Text: fmt.Sprintf("the cafe on street %d opens late", b), Label: 0},
			}
			if _, _, err := e.Ingest(batch); err != nil {
				t.Errorf("ingest batch %d: %v", b, err)
				return
			}
		}
	})
	if got := e.CorpusLen(); got != before+8 {
		t.Errorf("corpus grew to %d sentences, want %d", got, before+8)
	}
}

func TestSessionSeedPositiveIDsAndErrors(t *testing.T) {
	c := core.SmallCorpus(t, 0.04)
	e, err := core.New(c, core.FastConfig("local"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSolo(t, e, workspace.Options{}); err == nil {
		t.Error("empty seeds should error")
	}
	if _, err := newSolo(t, e, workspace.Options{SeedRules: []string{"@@@ ???"}}); err == nil {
		t.Error("unparseable seed rule should error")
	}
	pos := c.Positives()
	if len(pos) < 2 {
		t.Fatal("test corpus has too few positives")
	}
	ws, err := newSolo(t, e, workspace.Options{SeedPositiveIDs: []int{pos[0], pos[1]}, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ws.PositivesMap()); got != 2 {
		t.Fatalf("seeded positives = %d, want 2", got)
	}
	if keys := driveSolo(t, e, ws, oracle.NewGroundTruth(c)); len(keys) == 0 {
		t.Error("no questions asked from positive-ID seeds")
	}
}

// recordingTraversal wraps a strategy and records what the loop asks of it.
type recordingTraversal struct {
	traversal.Traversal
	proposed []string
	feedback map[string]bool
}

func (r *recordingTraversal) Next(st *traversal.State) (string, bool) {
	key, ok := r.Traversal.Next(st)
	if ok {
		r.proposed = append(r.proposed, key)
	}
	return key, ok
}

func (r *recordingTraversal) Feedback(st *traversal.State, key string, accepted bool) {
	r.feedback[key] = accepted
	r.Traversal.Feedback(st, key, accepted)
}

// TestSessionCustomTraversal pins the ownership rule for custom strategies:
// a traversal passed as RunOptions.Traversal belongs to that run alone,
// picks every question instead of the configured strategy, and hears every
// verdict.
func TestSessionCustomTraversal(t *testing.T) {
	c := core.SmallCorpus(t, 0.04)
	cfg := core.FastConfig("hybrid")
	cfg.Budget = 6
	e, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTraversal{Traversal: maxCoverageTraversal{}, feedback: map[string]bool{}}
	rep, err := workspace.Run(e, workspace.RunOptions{
		SeedRules: []string{"shuttle to"},
		Oracle:    oracle.NewGroundTruth(c),
		Traversal: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Questions == 0 {
		t.Fatal("run with a custom traversal asked no questions")
	}
	var asked []string
	for _, r := range rep.History {
		asked = append(asked, r.Key)
		if accepted, ok := rec.feedback[r.Key]; !ok || accepted != r.Accepted {
			t.Errorf("traversal heard %v/%v for %q, the oracle said %v", accepted, ok, r.Key, r.Accepted)
		}
	}
	if !reflect.DeepEqual(asked, rec.proposed) {
		t.Errorf("questions %v were not the custom traversal's proposals %v", asked, rec.proposed)
	}
}
