package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/darwin"
)

// createWSLabeler creates a workspace-mode labeler over /v2: a fresh
// workspace when wsID is empty, else an attachment of annotator to wsID.
func createWSLabeler(t *testing.T, ts *httptest.Server, wsID, annotator string, budget int, seed int64) darwin.Status {
	t.Helper()
	opts := darwin.CreateOptions{Mode: darwin.ModeWorkspace, Workspace: wsID, Annotator: annotator}
	if wsID == "" {
		opts.Dataset = "directions"
		opts.SeedRules = []string{"best way to get to"}
		opts.Budget = budget
		opts.Seed = seed
	}
	var st darwin.Status
	if status := doJSON(t, ts, http.MethodPost, "/v2/labelers", opts, &st); status != http.StatusCreated {
		t.Fatalf("create labeler for %s: status %d", annotator, status)
	}
	return st
}

// playWorkspace drives a two-annotator workspace over HTTP for up to steps
// answered questions, judging each suggestion against the corpus gold
// labels, and returns the annotators' labeler statuses (alice first; their
// Workspace field is the shared workspace ID).
func playWorkspace(t *testing.T, ts *httptest.Server, c *corpus.Corpus, budget, steps int) []darwin.Status {
	t.Helper()
	alice := createWSLabeler(t, ts, "", "alice", budget, 3)
	if alice.ID == "" || alice.Workspace == "" || alice.Positives == 0 {
		t.Fatalf("bad create response: %+v", alice)
	}
	labelers := []darwin.Status{alice, createWSLabeler(t, ts, alice.Workspace, "bob", 0, 0)}
	answered := 0
	for q := 0; answered < steps; q++ {
		lab := labelers[q%2]
		sug, done, status := suggestion(t, ts, lab.ID)
		if done {
			break
		}
		if status != http.StatusOK {
			t.Fatalf("suggest for %s: status %d", lab.Annotator, status)
		}
		pos := 0
		for _, sm := range sug.Samples {
			if s := c.Sentence(sm.ID); s != nil && s.Gold == corpus.Positive {
				pos++
			}
		}
		accept := len(sug.Samples) > 0 && float64(pos)/float64(len(sug.Samples)) >= 0.8
		var ans answersResponse
		if status := doJSON(t, ts, http.MethodPost, "/v2/labelers/"+lab.ID+"/answers", answerOne(sug.Key, accept), &ans); status != http.StatusOK {
			t.Fatalf("answer for %s: status %d", lab.Annotator, status)
		}
		if len(ans.Records) != 1 || ans.Records[0].Annotator != lab.Annotator || ans.Records[0].Key != sug.Key {
			t.Fatalf("answer echoed wrong records: %+v", ans.Records)
		}
		answered++
		if ans.Done {
			break
		}
	}
	if answered == 0 {
		t.Fatal("no questions answered")
	}
	return labelers
}

func getReport(t *testing.T, ts *httptest.Server, id string) darwin.Report {
	t.Helper()
	var rep darwin.Report
	if status := doJSON(t, ts, http.MethodGet, "/v2/labelers/"+id+"/report", nil, &rep); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}
	return rep
}

func TestWorkspaceHTTPLifecycle(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	labs := playWorkspace(t, ts, c, 16, 10)
	wsID := labs[0].Workspace
	rep := getReport(t, ts, labs[0].ID)
	if rep.Questions == 0 || rep.Questions > rep.Budget {
		t.Fatalf("questions = %d (budget %d)", rep.Questions, rep.Budget)
	}
	if len(rep.History) != rep.Questions {
		t.Fatalf("history %d != questions %d", len(rep.History), rep.Questions)
	}
	// Every question is tagged with the annotator who answered it, and
	// both annotators took turns.
	perAnnotator := map[string]int{}
	for _, rec := range rep.History {
		perAnnotator[rec.Annotator]++
	}
	if len(perAnnotator) != 2 || perAnnotator["alice"]+perAnnotator["bob"] != rep.Questions {
		t.Fatalf("per-annotator questions %v do not sum to %d", perAnnotator, rep.Questions)
	}
	// The annotators' labelers share one report.
	if other := getReport(t, ts, labs[1].ID); !reflect.DeepEqual(rep, other) {
		t.Fatal("annotators of one workspace see different reports")
	}
	if rep.Classifier == nil || rep.Classifier.Retrains == 0 {
		t.Error("classifier never retrained despite accepts")
	}
	// The shared hierarchy cache is live (process-local counter, hence not
	// in the report: it may diverge across replay on no-assignment
	// regenerations).
	ws, ok := srv.Workspaces().Get(wsID)
	if !ok {
		t.Fatal("workspace missing from manager")
	}
	if ws.HierarchyGenerations() == 0 {
		t.Error("shared hierarchy never generated")
	}

	// healthz counts the workspace.
	var health healthJSON
	doJSON(t, ts, http.MethodGet, "/healthz", nil, &health)
	if health.Workspaces != 1 {
		t.Errorf("healthz workspaces = %d", health.Workspaces)
	}

	// Export matches the shared positive set.
	resp, err := ts.Client().Get(ts.URL + "/v2/labelers/" + labs[0].ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}

	// Deleting a labeler detaches its annotator; once both are gone
	// neither labeler resolves, while the workspace itself lives on until
	// its TTL.
	for _, lab := range labs {
		if status := doJSON(t, ts, http.MethodDelete, "/v2/labelers/"+lab.ID, nil, nil); status != http.StatusNoContent {
			t.Fatalf("detach %s: status %d", lab.Annotator, status)
		}
		if status := doJSON(t, ts, http.MethodGet, "/v2/labelers/"+lab.ID+"/report", nil, nil); status != http.StatusNotFound {
			t.Fatalf("report after detaching %s: status %d", lab.Annotator, status)
		}
	}
	if ws, ok := srv.Workspaces().Get(wsID); !ok || len(ws.Annotators()) != 0 {
		t.Fatalf("workspace after detaching everyone: live=%v", ok)
	}
}

// TestWorkspaceConcurrentAnnotatorsHTTP runs several annotators stepping
// concurrently over HTTP in one workspace; assignments must stay disjoint
// end to end (the acceptance invariant), race-clean.
func TestWorkspaceConcurrentAnnotatorsHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := createWSLabeler(t, ts, "", "a0", 20, 0)
	labs := []darwin.Status{first}
	for _, n := range []string{"a1", "a2", "a3"} {
		labs = append(labs, createWSLabeler(t, ts, first.Workspace, n, 0, 0))
	}
	var wg sync.WaitGroup
	for i, lab := range labs {
		wg.Add(1)
		go func(lab darwin.Status, accept bool) {
			defer wg.Done()
			for {
				sug, done, status := suggestion(t, ts, lab.ID)
				if done {
					return
				}
				if status != http.StatusOK {
					t.Errorf("%s suggest: status %d", lab.Annotator, status)
					return
				}
				var ans answersResponse
				if status := doJSON(t, ts, http.MethodPost, "/v2/labelers/"+lab.ID+"/answers", answerOne(sug.Key, accept), &ans); status != http.StatusOK {
					t.Errorf("%s answer: status %d", lab.Annotator, status)
					return
				}
				if ans.Done {
					return
				}
			}
		}(lab, i%2 == 0)
	}
	wg.Wait()

	rep := getReport(t, ts, first.ID)
	if rep.Questions == 0 || rep.Questions > rep.Budget {
		t.Fatalf("questions = %d (budget %d)", rep.Questions, rep.Budget)
	}
	seen := map[string]bool{}
	for _, rec := range rep.History {
		if seen[rec.Key] {
			t.Fatalf("rule %q answered twice", rec.Key)
		}
		seen[rec.Key] = true
	}
}

// TestWorkspaceJournalRecoveryAcrossServers is the in-process restart test:
// a journaled workspace played on one server instance is byte-identically
// live on a second instance built over the same journal (the HTTP-level
// equivalent of the kill -9 e2e in cmd/darwind).
func TestWorkspaceJournalRecoveryAcrossServers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv1, c := newTestServer(t, Config{JournalPath: path})
	ts1 := httptest.NewServer(srv1)
	labs := playWorkspace(t, ts1, c, 30, 20)
	before := getReport(t, ts1, labs[0].ID)
	statusBefore := make([]darwin.Status, len(labs))
	for i, lab := range labs {
		doJSON(t, ts1, http.MethodGet, "/v2/labelers/"+lab.ID, nil, &statusBefore[i])
	}
	ts1.Close()
	if err := srv1.Workspaces().Sync(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Config{JournalPath: path})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if rec := srv2.Recovery(); rec.Workspaces != 1 || len(rec.Skipped) != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	after := getReport(t, ts2, labs[0].ID)
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.Marshal(before)
		b2, _ := json.Marshal(after)
		t.Fatalf("report changed across restart:\nbefore: %s\nafter:  %s", b1, b2)
	}
	// Both annotators' labeler ids resolve to the same status as before.
	for i, lab := range labs {
		var st darwin.Status
		if status := doJSON(t, ts2, http.MethodGet, "/v2/labelers/"+lab.ID, nil, &st); status != http.StatusOK {
			t.Fatalf("status of %s after recovery: %d", lab.Annotator, status)
		}
		if st != statusBefore[i] {
			t.Fatalf("status of %s changed across restart: %+v -> %+v", lab.Annotator, statusBefore[i], st)
		}
	}

	// The recovered workspace is live: annotators keep stepping where they
	// left off.
	sug, done, status := suggestion(t, ts2, labs[0].ID)
	if !done && status != http.StatusOK {
		t.Fatalf("suggest after recovery: status %d", status)
	}
	if !done && sug.Key == "" {
		t.Fatalf("bad post-recovery suggestion: %+v", sug)
	}
}

func TestWorkspaceHTTPErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	alice := createWSLabeler(t, ts, "", "alice", 5, 0)
	wsID := alice.Workspace
	ghost := wsLabelerID(wsID, "ghost")
	base := "/v2/labelers/" + alice.ID
	join := func(workspace, annotator string) darwin.CreateOptions {
		return darwin.CreateOptions{Mode: darwin.ModeWorkspace, Workspace: workspace, Annotator: annotator}
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "nope", Mode: darwin.ModeWorkspace, Annotator: "x"}, http.StatusNotFound},
		{"bad body", http.MethodPost, "/v2/labelers", "not-json", http.StatusBadRequest},
		{"empty seeds", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "x"}, http.StatusBadRequest},
		{"unknown workspace join", http.MethodPost, "/v2/labelers", join("deadbeef", "x"), http.StatusNotFound},
		{"unknown workspace suggest", http.MethodGet, "/v2/labelers/" + wsLabelerID("deadbeef", "x") + "/suggestion", nil, http.StatusNotFound},
		{"unknown workspace report", http.MethodGet, "/v2/labelers/" + wsLabelerID("deadbeef", "x") + "/report", nil, http.StatusNotFound},
		{"unknown workspace delete", http.MethodDelete, "/v2/labelers/" + wsLabelerID("deadbeef", "x"), nil, http.StatusNotFound},
		{"missing annotator", http.MethodPost, "/v2/labelers", join(wsID, ""), http.StatusBadRequest},
		{"unattached annotator", http.MethodGet, "/v2/labelers/" + ghost + "/suggestion", nil, http.StatusNotFound},
		{"duplicate attach", http.MethodPost, "/v2/labelers", join(wsID, "alice"), http.StatusConflict},
		{"answer without pending", http.MethodPost, base + "/answers", answerOne("k", false), http.StatusConflict},
		{"detach unknown", http.MethodDelete, "/v2/labelers/" + ghost, nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var env darwin.ErrorEnvelope
		if status := doJSON(t, ts, tc.method, tc.path, tc.body, &env); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		} else if env.Message == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// Mismatched answer key conflicts and leaves the workspace usable.
	sug, done, status := suggestion(t, ts, alice.ID)
	if status != http.StatusOK || done {
		t.Fatalf("suggest: status %d done=%v", status, done)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne("wrong", false), nil); status != http.StatusConflict {
		t.Fatalf("mismatched key: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne(sug.Key, true), nil); status != http.StatusOK {
		t.Fatalf("valid answer after conflict: status %d", status)
	}
}

// TestV2DetachRefusesUndurableDelete pins the DELETE durability contract
// at the handler layer (surfaced by darwinlint's journalack pass): when the
// detach record cannot be journaled, DELETE of a workspace attachment must
// answer a retryable 503 — never the 204 that tells the client the
// attachment is gone while journal replay would resurrect it — and the
// labeler must stay addressable so the DELETE can be retried.
func TestV2DetachRefusesUndurableDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: path})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lab := createWSLabeler(t, ts, "", "alice", 10, 3)

	// Kill the journal out from under the server: the detach append fails.
	if err := srv.Workspaces().Close(); err != nil {
		t.Fatal(err)
	}
	var env darwin.ErrorEnvelope
	if status := doJSON(t, ts, http.MethodDelete, "/v2/labelers/"+lab.ID, nil, &env); status != http.StatusServiceUnavailable {
		t.Fatalf("delete on a dead journal: status %d, want 503", status)
	}
	if env.Code != darwin.CodeUnavailable || !env.Retryable {
		t.Errorf("delete on a dead journal: envelope %+v, want code %q retryable=true", env, darwin.CodeUnavailable)
	}
	var st darwin.Status
	if status := doJSON(t, ts, http.MethodGet, "/v2/labelers/"+lab.ID, nil, &st); status != http.StatusOK {
		t.Fatalf("labeler after a failed detach: status %d, want 200", status)
	}
	if st.ID != lab.ID || st.Annotator != "alice" {
		t.Errorf("labeler after a failed detach: %+v", st)
	}
}
