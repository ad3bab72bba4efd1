package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/pkg/darwin"
)

// --- error envelope conformance ---

// envelopeCase triggers one typed error on one /v2 endpoint and states the
// documented {status, code, retryable} triple it must serve.
type envelopeCase struct {
	name      string
	method    string
	path      string
	body      any
	status    int
	code      string
	retryable bool
	sentinel  error
}

// TestV2ErrorEnvelopeConformance is the table-driven satellite: every /v2
// endpoint must map each typed error to the documented JSON envelope and
// HTTP status, and the code must round-trip to the matching SDK sentinel.
func TestV2ErrorEnvelopeConformance(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A finished labeler for budget_exhausted and a live one for conflicts.
	client := darwin.NewClient(ts.URL, "")
	done, err := client.NewLabeler(t.Context(), darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.AnswerBatch(t.Context(), []darwin.Answer{{Accept: false}}); err != nil {
		t.Fatal(err)
	}
	live, err := client.NewLabeler(t.Context(), darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A live workspace for the join-validation cases.
	wsLab, err := client.NewLabeler(t.Context(), darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "a",
		SeedRules: []string{"best way to get to"}, Budget: 5, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	wsSt, err := wsLab.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	wsID := wsSt.Workspace

	cases := []envelopeCase{
		{"create/unknown-dataset", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "nope"},
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"create/bad-mode", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "directions", Mode: "telepathy"},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"create/bad-seed-rule", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "directions", SeedRules: []string{"@@@ ???"}},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"create/session-with-workspace", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "directions", Workspace: wsID},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"create/workspace-without-annotator", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "directions", Mode: darwin.ModeWorkspace},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"create/workspace-unknown-ws", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "directions", Mode: darwin.ModeWorkspace, Workspace: "missing", Annotator: "a"},
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"create/join-dataset-mismatch", "POST", "/v2/labelers",
			darwin.CreateOptions{Dataset: "musicians", Mode: darwin.ModeWorkspace, Workspace: wsID, Annotator: "b"},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"create/join-with-seeds", "POST", "/v2/labelers",
			darwin.CreateOptions{Mode: darwin.ModeWorkspace, Workspace: wsID, Annotator: "b", Budget: 99},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"status/unknown", "GET", "/v2/labelers/unknown", nil,
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"suggestion/unknown", "GET", "/v2/labelers/unknown/suggestion", nil,
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"answers/unknown", "POST", "/v2/labelers/unknown/answers",
			map[string]any{"answers": []darwin.Answer{{Accept: true}}},
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"report/unknown", "GET", "/v2/labelers/unknown/report", nil,
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"export/unknown", "GET", "/v2/labelers/unknown/export", nil,
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"delete/unknown", "DELETE", "/v2/labelers/unknown", nil,
			http.StatusNotFound, darwin.CodeNotFound, false, darwin.ErrNotFound},
		{"answers/empty", "POST", "/v2/labelers/" + live.ID() + "/answers",
			map[string]any{"answers": []darwin.Answer{}},
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
		{"answers/keyed-without-pending", "POST", "/v2/labelers/" + live.ID() + "/answers",
			map[string]any{"answers": []darwin.Answer{{Key: "tokensregex:nope", Accept: true}}},
			http.StatusConflict, darwin.CodeConflict, false, darwin.ErrConflict},
		{"suggestion/budget-exhausted", "GET", "/v2/labelers/" + done.ID() + "/suggestion", nil,
			http.StatusConflict, darwin.CodeBudgetExhausted, false, darwin.ErrBudgetExhausted},
		{"list/bad-limit", "GET", "/v2/labelers?limit=banana", nil,
			http.StatusBadRequest, darwin.CodeInvalid, false, darwin.ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env darwin.ErrorEnvelope
			status := doJSON(t, ts, tc.method, tc.path, tc.body, &env)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			if env.Code != tc.code {
				t.Errorf("code %q, want %q", env.Code, tc.code)
			}
			if env.Retryable != tc.retryable {
				t.Errorf("retryable %v, want %v", env.Retryable, tc.retryable)
			}
			if env.Message == "" {
				t.Error("envelope has no message")
			}
			if !errors.Is(env.Err(), tc.sentinel) {
				t.Errorf("envelope does not round-trip to %v (got %v)", tc.sentinel, env.Err())
			}
		})
	}
}

// TestV2MiddlewareErrorEnvelopes pins that auth and rate-limit rejections
// speak the /v2 envelope too.
func TestV2MiddlewareErrorEnvelopes(t *testing.T) {
	srv, _ := newTestServer(t, Config{Token: "s3cret", RatePerSec: 1, RateBurst: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var env darwin.ErrorEnvelope
	if status := doJSON(t, ts, "GET", "/v2/labelers", nil, &env); status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v2: status %d, want 401", status)
	}
	if env.Code != darwin.CodeUnauthorized || env.Retryable {
		t.Errorf("unauthenticated envelope %+v, want code %q retryable=false", env, darwin.CodeUnauthorized)
	}
	// Exhaust the burst to observe the rate-limit envelope.
	sawRateLimit := false
	for i := 0; i < 6 && !sawRateLimit; i++ {
		var e darwin.ErrorEnvelope
		req, err := http.NewRequest("GET", ts.URL+"/v2/labelers", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer s3cret")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Code != darwin.CodeRateLimited || !e.Retryable {
				t.Errorf("rate-limit envelope %+v, want code %q retryable=true", e, darwin.CodeRateLimited)
			}
			sawRateLimit = true
		}
		resp.Body.Close()
	}
	if !sawRateLimit {
		t.Error("rate limit never triggered within the test burst")
	}
}

// --- workspace-backed labelers over /v2 ---

// TestV2WorkspaceLabelers exercises the unified surface: two annotators as
// two labelers over one shared workspace, disjoint suggestions, shared
// report, delete = detach (workspace survives).
func TestV2WorkspaceLabelers(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var alice darwin.Status
	if status := doJSON(t, ts, "POST", "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 9,
	}, &alice); status != http.StatusCreated {
		t.Fatalf("create alice: status %d", status)
	}
	if alice.Workspace == "" || alice.Mode != darwin.ModeWorkspace {
		t.Fatalf("alice status %+v lacks workspace identity", alice)
	}
	var bob darwin.Status
	if status := doJSON(t, ts, "POST", "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Workspace: alice.Workspace, Annotator: "bob",
	}, &bob); status != http.StatusCreated {
		t.Fatalf("create bob: status %d", status)
	}
	if bob.Workspace != alice.Workspace {
		t.Fatalf("bob joined workspace %q, want %q", bob.Workspace, alice.Workspace)
	}

	var sugA, sugB darwin.Suggestion
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+alice.ID+"/suggestion", nil, &sugA); status != http.StatusOK {
		t.Fatalf("alice suggestion: status %d", status)
	}
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+bob.ID+"/suggestion", nil, &sugB); status != http.StatusOK {
		t.Fatalf("bob suggestion: status %d", status)
	}
	if sugA.Key == sugB.Key {
		t.Errorf("concurrent annotators saw the same candidate %q", sugA.Key)
	}
	var out json.RawMessage
	if status := doJSON(t, ts, "POST", "/v2/labelers/"+alice.ID+"/answers",
		map[string]any{"answers": []darwin.Answer{{Key: sugA.Key, Accept: true}}}, &out); status != http.StatusOK {
		t.Fatalf("alice answer: status %d: %s", status, out)
	}

	// Both labelers report the same shared state, tagged with annotators.
	var repA, repB darwin.Report
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+alice.ID+"/report", nil, &repA); status != http.StatusOK {
		t.Fatalf("alice report: status %d", status)
	}
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+bob.ID+"/report", nil, &repB); status != http.StatusOK {
		t.Fatalf("bob report: status %d", status)
	}
	if repA.Questions != repB.Questions || repA.Positives != repB.Positives {
		t.Errorf("shared reports diverge: alice %+v bob %+v", repA, repB)
	}
	if repA.Mode != darwin.ModeWorkspace || repA.Classifier == nil {
		t.Errorf("workspace report %+v lacks mode/classifier", repA)
	}
	if len(repA.History) != 1 || repA.History[0].Annotator != "alice" {
		t.Errorf("history not annotator-tagged: %+v", repA.History)
	}

	// Deleting bob's labeler detaches him; the workspace (and alice) live on.
	if status := doJSON(t, ts, "DELETE", "/v2/labelers/"+bob.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete bob: status %d", status)
	}
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+bob.ID, nil, nil); status != http.StatusNotFound {
		t.Errorf("bob's labeler still resolves after delete: status %d", status)
	}
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+alice.ID+"/suggestion", nil, &sugA); status != http.StatusOK {
		t.Errorf("alice broken after bob detached: status %d", status)
	}
	if srv.Workspaces().Len() != 1 {
		t.Errorf("workspace evicted by labeler delete: %d live", srv.Workspaces().Len())
	}
}

// --- pagination ---

func TestV2ListPagination(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")

	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		lab, err := client.NewLabeler(t.Context(), darwin.CreateOptions{
			Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		want[lab.ID()] = true
	}
	got := map[string]bool{}
	cursor := ""
	pages := 0
	for {
		page, err := client.ListLabelers(t.Context(), cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(page.Labelers) > 2 {
			t.Fatalf("page of %d items exceeds limit 2", len(page.Labelers))
		}
		for _, st := range page.Labelers {
			if got[st.ID] {
				t.Fatalf("labeler %s appeared on two pages", st.ID)
			}
			got[st.ID] = true
			if st.Dataset != "directions" || st.Budget != 5 {
				t.Errorf("listed status %+v is wrong", st)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages < 3 {
		t.Errorf("5 labelers at limit 2 took %d pages, want >= 3", pages)
	}
	if len(got) != len(want) {
		t.Errorf("listing returned %d labelers, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("labeler %s missing from the listing", id)
		}
	}

	datasets, err := client.ListDatasets(t.Context(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets.Datasets) != 1 || datasets.Datasets[0] != "directions" {
		t.Errorf("datasets = %v, want [directions]", datasets.Datasets)
	}
}

// TestV2BatchAnswersPartialFailure pins the fail-fast wire contract: a batch
// that conflicts mid-way reports the applied prefix and an embedded typed
// error envelope in a 200 response.
func TestV2BatchAnswersPartialFailure(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var st darwin.Status
	if status := doJSON(t, ts, "POST", "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 6, Seed: 3,
	}, &st); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	body := map[string]any{"answers": []darwin.Answer{
		{Accept: false}, {Accept: false}, {Key: "tokensregex:never matches", Accept: true},
	}}
	var resp struct {
		Applied int                   `json:"applied"`
		Records []darwin.RuleRecord   `json:"records"`
		Error   *darwin.ErrorEnvelope `json:"error"`
	}
	if status := doJSON(t, ts, "POST", "/v2/labelers/"+st.ID+"/answers", body, &resp); status != http.StatusOK {
		t.Fatalf("partial batch: status %d", status)
	}
	if resp.Applied != 2 || len(resp.Records) != 2 {
		t.Errorf("applied %d records %d, want 2 and 2", resp.Applied, len(resp.Records))
	}
	if resp.Error == nil || resp.Error.Code != darwin.CodeConflict {
		t.Errorf("embedded error %+v, want code %q", resp.Error, darwin.CodeConflict)
	}
	// The two applied rejects are durable: the report sees questions=2.
	var rep darwin.Report
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+st.ID+"/report", nil, &rep); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}
	if rep.Questions != 2 {
		t.Errorf("questions after partial batch %d, want 2", rep.Questions)
	}
}

// TestV2WorkspaceLabelerOrphanedByEviction pins the registry-pruning fix: a
// workspace-backed labeler whose workspace was evicted resolves as 404 and
// disappears from the listing instead of leaking a registry entry.
func TestV2WorkspaceLabelerOrphanedByEviction(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var st darwin.Status
	if status := doJSON(t, ts, "POST", "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 4,
	}, &st); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if existed, err := srv.Workspaces().Evict(st.Workspace, "test"); !existed || err != nil {
		t.Fatalf("evict failed: existed=%v err=%v", existed, err)
	}
	var env darwin.ErrorEnvelope
	if status := doJSON(t, ts, "GET", "/v2/labelers/"+st.ID, nil, &env); status != http.StatusNotFound {
		t.Fatalf("orphaned labeler: status %d, want 404", status)
	}
	if env.Code != darwin.CodeNotFound {
		t.Errorf("orphaned labeler envelope code %q, want %q", env.Code, darwin.CodeNotFound)
	}
	var page darwin.LabelerPage
	if status := doJSON(t, ts, "GET", "/v2/labelers", nil, &page); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	for _, l := range page.Labelers {
		if l.ID == st.ID {
			t.Errorf("orphaned labeler %s still listed", st.ID)
		}
	}
}

// TestV2AttachmentResumesAcrossRestart pins the durable-attachment-id
// bugfix: a workspace-attachment labeler id is derived deterministically
// from (workspace, annotator) and the registry is rebuilt from the journal,
// so a remote client resumes the exact labeler id it held before a darwind
// restart (pre-fix the id was a random per-create token living only in
// process memory, and this test 404ed after the restart).
func TestV2AttachmentResumesAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv1, _ := newTestServer(t, Config{JournalPath: path})
	ts1 := httptest.NewServer(srv1)

	var st darwin.Status
	if status := doJSON(t, ts1, http.MethodPost, "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 12, Seed: 3,
	}, &st); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	var sug darwin.Suggestion
	if status := doJSON(t, ts1, http.MethodGet, "/v2/labelers/"+st.ID+"/suggestion", nil, &sug); status != http.StatusOK {
		t.Fatalf("suggestion: status %d", status)
	}
	if status := doJSON(t, ts1, http.MethodPost, "/v2/labelers/"+st.ID+"/answers",
		map[string]any{"answers": []darwin.Answer{{Key: sug.Key, Accept: true}}}, nil); status != http.StatusOK {
		t.Fatalf("answer: status %d", status)
	}
	var before darwin.Report
	if status := doJSON(t, ts1, http.MethodGet, "/v2/labelers/"+st.ID+"/report", nil, &before); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}
	ts1.Close()
	if err := srv1.Workspaces().Sync(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Config{JournalPath: path})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	// The same labeler id resolves on the restarted server.
	var resumed darwin.Status
	if status := doJSON(t, ts2, http.MethodGet, "/v2/labelers/"+st.ID, nil, &resumed); status != http.StatusOK {
		t.Fatalf("status after restart: %d (labeler id did not survive)", status)
	}
	if resumed.Workspace != st.Workspace || resumed.Annotator != "alice" || resumed.Questions != 1 {
		t.Fatalf("resumed status %+v does not match pre-restart identity %+v", resumed, st)
	}
	var after darwin.Report
	if status := doJSON(t, ts2, http.MethodGet, "/v2/labelers/"+st.ID+"/report", nil, &after); status != http.StatusOK {
		t.Fatalf("report after restart: status %d", status)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("report changed across restart")
	}
	// The resumed labeler keeps stepping, and DELETE detaches as usual.
	if status := doJSON(t, ts2, http.MethodGet, "/v2/labelers/"+st.ID+"/suggestion", nil, &sug); status != http.StatusOK {
		t.Fatalf("suggestion after restart: status %d", status)
	}
	if status := doJSON(t, ts2, http.MethodDelete, "/v2/labelers/"+st.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete after restart: status %d", status)
	}
	if status := doJSON(t, ts2, http.MethodGet, "/v2/labelers/"+st.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("deleted labeler still resolves: status %d", status)
	}
}
