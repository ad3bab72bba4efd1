package workspace

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

// RunOptions configures one batch discovery run.
type RunOptions struct {
	// SeedRules are textual rule specifications (e.g. "best way to get to" or
	// "treematch:caused/by"); their coverage seeds P without consuming
	// budget.
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive; they seed P
	// directly (the "couple of positive sentences" initialization).
	SeedPositiveIDs []int
	// Oracle answers rule-verification queries. Required.
	Oracle oracle.Oracle
	// Traversal, when non-nil, replaces the engine's configured strategy
	// (the HighP and HighC baselines plug in alternative selection
	// strategies here). The run takes ownership of the instance.
	Traversal traversal.Traversal
	// OnQuery, if non-nil, is called after every oracle query with the
	// record and the workspace's p_s scores (indexed by sentence ID), which
	// already reflect the query's outcome. The slice is the run's live score
	// vector: later queries update it in place, so the one passed last holds
	// the final scores once Run returns. Callers must not modify it.
	OnQuery func(rec core.RuleRecord, scores []float64)
}

// runAnnotator is the one annotator of a batch run.
const runAnnotator = "oracle"

// Run executes Algorithm 1 end to end: from the seed rules / seed positives
// it lets the engine's configured traversal pick candidates, asks the oracle,
// and updates the positive set and classifier, until the engine's query
// budget is spent or no candidates remain. It drives a one-annotator
// workspace without a journal, seeded with the engine's configured seed —
// the same loop that serves interactive labelers.
func Run(eng *core.Engine, opts RunOptions) (*core.Report, error) {
	if opts.Oracle == nil {
		return nil, fmt.Errorf("workspace: RunOptions.Oracle is required")
	}
	start := time.Now()
	ws, err := New(eng, "run", eng.Corpus().Name, Options{
		SeedRules:       opts.SeedRules,
		SeedPositiveIDs: opts.SeedPositiveIDs,
		Budget:          eng.DefaultBudget(),
		Seed:            eng.DefaultSeed(),
	}, nil)
	if err != nil {
		return nil, err
	}
	if opts.Traversal != nil {
		ws.trav = opts.Traversal
	}
	if err := ws.Attach(runAnnotator); err != nil {
		return nil, err
	}
	for {
		sug, ok, err := ws.Suggest(runAnnotator)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		accepted := opts.Oracle.Answer(ws.pendingQuery(runAnnotator, sug.SampleIDs))
		rec, err := ws.Answer(runAnnotator, sug.Key, accepted)
		if err != nil {
			return nil, err
		}
		if opts.OnQuery != nil {
			ws.mu.Lock()
			scores := ws.scores
			ws.mu.Unlock()
			opts.OnQuery(rec.RuleRecord, scores)
		}
	}

	ws.mu.Lock()
	defer ws.mu.Unlock()
	rep := &core.Report{
		Positives:  make(map[int]bool, len(ws.positives)),
		Questions:  ws.questions,
		IndexBuild: eng.IndexBuildTime(),
	}
	for id := range ws.positives {
		rep.Positives[id] = true
	}
	for _, rec := range ws.accepted {
		rep.Accepted = append(rep.Accepted, rec.RuleRecord)
	}
	for _, rec := range ws.history {
		rep.History = append(rep.History, rec.RuleRecord)
	}
	rep.Total = time.Since(start)
	return rep, nil
}

// pendingQuery is the oracle query for the annotator's pending suggestion.
func (ws *Workspace) pendingQuery(name string, samples []int) oracle.Query {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	an := ws.annotators[name]
	return oracle.Query{Heuristic: an.pendingHeur, Coverage: an.pendingCov, Samples: samples}
}
