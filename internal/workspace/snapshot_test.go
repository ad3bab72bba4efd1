package workspace

import (
	"encoding/json"
	"reflect"
	"testing"
)

// scriptOp is one scripted workspace event.
type scriptOp struct {
	kind      string // "attach", "detach", "suggest" or "answer"
	annotator string
	accept    bool
}

// apply runs one scripted event; an answer resolves the annotator's pending
// suggestion (Suggest is idempotent while one is pending).
func (op scriptOp) apply(t *testing.T, ws *Workspace) {
	t.Helper()
	var err error
	switch op.kind {
	case "attach":
		err = ws.Attach(op.annotator)
	case "detach":
		err = ws.Detach(op.annotator)
	case "suggest", "answer":
		var sug Suggestion
		var ok bool
		sug, ok, err = ws.Suggest(op.annotator)
		if err == nil && !ok {
			t.Fatalf("%s for %s assigned nothing", op.kind, op.annotator)
		}
		if err == nil && op.kind == "answer" {
			_, err = ws.Answer(op.annotator, sug.Key, op.accept)
		}
	}
	if err != nil {
		t.Fatalf("%s %s: %v", op.kind, op.annotator, err)
	}
}

// nextSuggestions asks every attached annotator, in attach order, for their
// next suggestion.
func nextSuggestions(t *testing.T, ws *Workspace) []Suggestion {
	t.Helper()
	var out []Suggestion
	for _, name := range ws.Annotators() {
		sug, _, err := ws.Suggest(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sug)
	}
	return out
}

// TestSnapshotAtEveryEventBoundary compacts at every event boundary of a
// scripted two-annotator Hybrid-search workspace — accepts, rejects, and
// detaches while a suggestion is pending — and requires every restored
// workspace to continue exactly like the live one: the same report after
// each remaining event, and the same next suggestion for each annotator.
// That holds only if the snapshot carries the traversal state (LocalSearch
// frontier, Hybrid mode, attempt count, local proposals, seeded flag).
func TestSnapshotAtEveryEventBoundary(t *testing.T) {
	script := []scriptOp{{kind: "attach", annotator: "alice"}, {kind: "attach", annotator: "bob"}}
	for i := 0; i < 9; i++ {
		script = append(script,
			scriptOp{kind: "suggest", annotator: "alice"},
			scriptOp{kind: "suggest", annotator: "bob"},
			scriptOp{kind: "answer", annotator: "alice", accept: i%3 == 0},
			scriptOp{kind: "answer", annotator: "bob", accept: i == 4},
		)
		if i == 5 {
			// Detach with a suggestion pending: it goes back to the pool.
			script = append(script,
				scriptOp{kind: "suggest", annotator: "alice"},
				scriptOp{kind: "detach", annotator: "alice"},
				scriptOp{kind: "attach", annotator: "alice"},
			)
		}
	}
	script = append(script,
		scriptOp{kind: "suggest", annotator: "bob"},
		scriptOp{kind: "detach", annotator: "bob"},
	)

	eng := newTestEngine(t)
	if name := eng.Config().Traversal; name != "hybrid" {
		t.Fatalf("test engine traverses with %q, want hybrid", name)
	}
	live, err := New(eng, "ws-boundary", "directions", Options{SeedRules: []string{seedRule}, Budget: 40, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// snaps[k] and reports[k] are taken after the first k events.
	snaps := make([][]byte, 0, len(script)+1)
	reports := make([]*Report, 0, len(script)+1)
	record := func() {
		raw, err := json.Marshal(live.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, raw)
		reports = append(reports, live.Report())
	}
	record()
	for _, op := range script {
		op.apply(t, live)
		record()
	}
	accepts, rejects := 0, 0
	for _, rec := range live.Report().History {
		if rec.Accepted {
			accepts++
		} else {
			rejects++
		}
	}
	if accepts == 0 || rejects == 0 {
		t.Fatalf("script answered %d accepts and %d rejects; want both", accepts, rejects)
	}
	wantNext := nextSuggestions(t, live)

	for k := range snaps {
		var snap Snapshot
		if err := json.Unmarshal(snaps[k], &snap); err != nil {
			t.Fatal(err)
		}
		ws, err := Restore(eng, &snap, nil)
		if err != nil {
			t.Fatalf("restore after event %d: %v", k, err)
		}
		if got := ws.Report(); !reflect.DeepEqual(got, reports[k]) {
			t.Fatalf("restore after event %d: report differs from the live one", k)
		}
		for i, op := range script[k:] {
			op.apply(t, ws)
			if got := ws.Report(); !reflect.DeepEqual(got, reports[k+i+1]) {
				t.Fatalf("restore after event %d: report after event %d (%s %s) differs from the live one",
					k, k+i+1, op.kind, op.annotator)
			}
		}
		if got := nextSuggestions(t, ws); !reflect.DeepEqual(got, wantNext) {
			t.Fatalf("restore after event %d: next suggestions %+v, live %+v", k, got, wantNext)
		}
	}
}
