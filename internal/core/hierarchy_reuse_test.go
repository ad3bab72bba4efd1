package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workspace"
)

// TestHierarchyReuseAcrossRejects pins the incremental-reuse contract: the
// candidate hierarchy is regenerated only when the positive set changes (an
// accepted answer) or the shared index grows — never for rejects or repeated
// Suggest calls. A reject-heavy labeler (the acceptance scenario: ~20
// rejects, 1 accept) must invoke hierarchy generation exactly once per
// positive-set change.
func TestHierarchyReuseAcrossRejects(t *testing.T) {
	c := core.SmallCorpus(t, 0.06)
	e, err := core.New(c, core.FastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := newSolo(t, e, workspace.Options{SeedRules: []string{"best way to get to"}, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ws.HierarchyGenerations() != 0 {
		t.Fatalf("hierarchy generated before first Suggest: %d", ws.HierarchyGenerations())
	}

	// One accept (the first suggestion that actually adds coverage), then
	// rejects only.
	accepts, rejects := 0, 0
	for rejects < 20 {
		sug, ok, err := ws.Suggest(solo)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// Repeated Suggest must serve the pending suggestion without touching
		// the hierarchy.
		gens := ws.HierarchyGenerations()
		if again, _, _ := ws.Suggest(solo); again.Key != sug.Key || ws.HierarchyGenerations() != gens {
			t.Fatal("repeated Suggest regenerated the hierarchy or changed the suggestion")
		}
		accept := accepts == 0 && sug.NewCoverage > 0
		if _, err := ws.Answer(solo, sug.Key, accept); err != nil {
			t.Fatal(err)
		}
		if accept {
			accepts++
		} else {
			rejects++
		}
	}
	if accepts != 1 || rejects < 20 {
		t.Fatalf("scenario not reached: %d accepts, %d rejects", accepts, rejects)
	}
	// Generations: one for the first Suggest, one after the accepted answer
	// changed P. Rejects must not regenerate.
	if got := ws.HierarchyGenerations(); got != 1+accepts {
		t.Errorf("hierarchy generated %d times over %d questions; want %d (one initial + one per accept)",
			got, accepts+rejects, 1+accepts)
	}

	// Growing the shared index (another labeler materializing a rule beyond
	// the sketch depth, so it is genuinely new) invalidates the cached
	// hierarchy on the next step.
	gens := ws.HierarchyGenerations()
	ixVer := e.Index().Version()
	if _, _, err := e.MaterializeRule("what is the best way"); err != nil {
		t.Fatal(err)
	}
	if e.Index().Version() == ixVer {
		t.Fatal("sanity: materialization did not grow the index")
	}
	if sug, ok, _ := ws.Suggest(solo); ok {
		if _, err := ws.Answer(solo, sug.Key, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := ws.HierarchyGenerations(); got != gens+1 {
		t.Errorf("index growth did not invalidate the cached hierarchy: %d -> %d generations", gens, got)
	}
}
