package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
	"repro/pkg/darwin"
)

// newTestServer builds a server over one small synthetic "directions"
// dataset with a fast engine configuration. The corpus is returned so tests
// can consult gold labels when playing annotator.
func newTestServer(t *testing.T, cfg Config) (*Server, *corpus.Corpus) {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 2,
		Budget:          30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	}
	engine, err := core.New(c, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, &Dataset{Name: "directions", Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// doJSON performs a request against the test server and decodes the JSON
// response into out (which may be nil).
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// answersResponse is the part of the /v2 batch-answers response body the
// tests read.
type answersResponse struct {
	Records []darwin.RuleRecord `json:"records"`
	Done    bool                `json:"done"`
}

// answerOne is the /v2 answers body carrying a single keyed verdict.
func answerOne(key string, accept bool) map[string]any {
	return map[string]any{"answers": []darwin.Answer{{Key: key, Accept: accept}}}
}

// suggestion fetches a labeler's pending suggestion over /v2. done reports
// the budget_exhausted conflict that ends a run; any other failure status
// is returned as is, with the envelope it carried.
func suggestion(t *testing.T, ts *httptest.Server, id string) (sug darwin.Suggestion, done bool, status int) {
	t.Helper()
	var body struct {
		darwin.Suggestion
		darwin.ErrorEnvelope
	}
	status = doJSON(t, ts, http.MethodGet, "/v2/labelers/"+id+"/suggestion", nil, &body)
	done = status == http.StatusConflict && body.Code == darwin.CodeBudgetExhausted
	return body.Suggestion, done, status
}

// playSession drives one full interactive session over HTTP, answering each
// suggestion by inspecting the shown samples against the corpus gold labels
// (the way a human annotator judges precision from the examples). It returns
// the labeler id and the session's final report.
func playSession(t *testing.T, ts *httptest.Server, c *corpus.Corpus, seedRule string, budget int, seed int64) (string, darwin.Report) {
	t.Helper()
	var created darwin.Status
	status := doJSON(t, ts, http.MethodPost, "/v2/labelers", darwin.CreateOptions{
		Dataset:   "directions",
		SeedRules: []string{seedRule},
		Budget:    budget,
		Seed:      seed,
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.ID == "" || created.Positives == 0 || created.Budget != budget {
		t.Fatalf("bad create response: %+v", created)
	}

	base := "/v2/labelers/" + created.ID
	for {
		sug, done, status := suggestion(t, ts, created.ID)
		if done {
			break
		}
		if status != http.StatusOK {
			t.Fatalf("suggest: status %d", status)
		}
		if sug.Key == "" || sug.Rule == "" || len(sug.Samples) == 0 {
			t.Fatalf("incomplete suggestion: %+v", sug)
		}
		// Judge the rule from its sample sentences, like the annotator of
		// Figure 2: accept when at least 80% of the samples are positive.
		pos := 0
		for _, sm := range sug.Samples {
			if s := c.Sentence(sm.ID); s != nil && s.Gold == corpus.Positive {
				pos++
			}
			if got := c.Sentence(sm.ID); got == nil || got.Text != sm.Text {
				t.Fatalf("sample %d text does not match the corpus", sm.ID)
			}
		}
		accept := float64(pos)/float64(len(sug.Samples)) >= 0.8
		var ans answersResponse
		if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne(sug.Key, accept), &ans); status != http.StatusOK {
			t.Fatalf("answer: status %d", status)
		}
		if len(ans.Records) != 1 || ans.Records[0].Key != sug.Key || ans.Records[0].Accepted != accept {
			t.Fatalf("answer echoed wrong records: %+v", ans.Records)
		}
		if ans.Done {
			break
		}
	}

	var rep darwin.Report
	if status := doJSON(t, ts, http.MethodGet, base+"/report", nil, &rep); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}
	return created.ID, rep
}

// TestEndToEndInteractiveSession walks the full HTTP lifecycle: create ->
// suggest -> answer (repeat) -> report -> export.
func TestEndToEndInteractiveSession(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Liveness first.
	var health healthJSON
	if status := doJSON(t, ts, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.Status != "ok" || len(health.Datasets) != 1 || health.Datasets[0] != "directions" {
		t.Fatalf("bad health: %+v", health)
	}

	id, rep := playSession(t, ts, c, "best way to get to", 15, 3)
	if rep.Questions == 0 || rep.Questions > 15 {
		t.Fatalf("questions = %d", rep.Questions)
	}
	if len(rep.History) != rep.Questions {
		t.Fatalf("history has %d records for %d questions", len(rep.History), rep.Questions)
	}
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Fatalf("seed rule missing from accepted: %+v", rep.Accepted)
	}
	if rep.Positives == 0 {
		t.Fatal("no positives discovered")
	}

	// healthz aggregates the latency of every suggest call served so far.
	if status := doJSON(t, ts, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.Steps < int64(rep.Questions) {
		t.Errorf("healthz steps = %d, want >= %d", health.Steps, rep.Questions)
	}
	if health.AvgStepMillis <= 0 || health.LastStepMillis <= 0 {
		t.Errorf("healthz step latency missing: %+v", health)
	}

	// Export the labeled corpus and check it against the report.
	resp, err := ts.Client().Get(ts.URL + "/v2/labelers/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("export content type = %q", ct)
	}
	labeled := 0
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var rec struct {
			ID    int    `json:"id"`
			Text  string `json:"text"`
			Label int    `json:"label"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("export line %d: %v", lines, err)
		}
		if rec.ID != lines {
			t.Fatalf("export line %d has id %d", lines, rec.ID)
		}
		if rec.Label == 1 {
			labeled++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != c.Len() {
		t.Fatalf("export has %d lines, corpus has %d sentences", lines, c.Len())
	}
	if labeled != rep.Positives {
		t.Fatalf("export labeled %d sentences, report says %d", labeled, rep.Positives)
	}

	// Deleting the solo labeler makes it unreachable.
	if status := doJSON(t, ts, http.MethodDelete, "/v2/labelers/"+id, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodGet, "/v2/labelers/"+id+"/report", nil, nil); status != http.StatusNotFound {
		t.Fatalf("report after delete: status %d", status)
	}
	// Nobody joined the solo labeler's workspace, so the delete freed it.
	if got := srv.Workspaces().Len(); got != 0 {
		t.Fatalf("%d workspaces live after deleting the only solo labeler", got)
	}
}

// TestConcurrentHTTPSessions runs >= 8 interactive sessions concurrently
// against one shared engine; with -race this exercises the whole stack's lock
// discipline end to end.
func TestConcurrentHTTPSessions(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers = 8
	reports := make([]darwin.Report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seedRule := "best way to get to"
			if w%2 == 1 {
				seedRule = "shuttle to"
			}
			_, reports[w] = playSession(t, ts, c, seedRule, 6, int64(w+1))
		}(w)
	}
	wg.Wait()

	for w, rep := range reports {
		if rep.Positives == 0 {
			t.Errorf("worker %d discovered no positives", w)
		}
		if rep.Questions == 0 {
			t.Errorf("worker %d asked no questions", w)
		}
	}
	// Every solo labeler is its own one-annotator workspace.
	if got := srv.Workspaces().Len(); got != workers {
		t.Errorf("manager has %d workspaces, want %d", got, workers)
	}
}

// createSession creates a solo session labeler over /v2 and returns its
// status (ID set).
func createSession(t *testing.T, ts *httptest.Server, budget int) darwin.Status {
	t.Helper()
	var created darwin.Status
	if status := doJSON(t, ts, http.MethodPost, "/v2/labelers", darwin.CreateOptions{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    budget,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	return created
}

// TestSessionTTLExpiry pins that a solo labeler's workspace is TTL-swept
// like every workspace: the manager's janitor evicts it once idle past
// WorkspaceTTL, and the labeler then answers 404.
func TestSessionTTLExpiry(t *testing.T) {
	srv, _ := newTestServer(t, Config{WorkspaceTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	created := createSession(t, ts, 5)
	if created.Mode != darwin.ModeWorkspace || created.Workspace == "" || created.Annotator != darwin.SoloAnnotator {
		t.Fatalf("solo labeler status = %+v, want a workspace attachment of %q", created, darwin.SoloAnnotator)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { srv.Workspaces().Janitor(5*time.Millisecond, stop); close(done) }()
	deadline := time.After(5 * time.Second)
	for srv.Workspaces().Len() != 0 {
		select {
		case <-deadline:
			t.Fatal("janitor never swept the idle solo labeler")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	if _, _, status := suggestion(t, ts, created.ID); status != http.StatusNotFound {
		t.Fatalf("expired labeler answered with status %d", status)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "nope"}, http.StatusNotFound},
		{"bad create body", http.MethodPost, "/v2/labelers", "not-json", http.StatusBadRequest},
		{"bad seed rule", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "directions", SeedRules: []string{"@@@ ???"}}, http.StatusBadRequest},
		{"empty seeds", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "directions"}, http.StatusBadRequest},
		{"too many seed rules", http.MethodPost, "/v2/labelers", darwin.CreateOptions{Dataset: "directions", SeedRules: make([]string, 17)}, http.StatusBadRequest},
		{"unknown session suggest", http.MethodGet, "/v2/labelers/deadbeef/suggestion", nil, http.StatusNotFound},
		{"unknown session answer", http.MethodPost, "/v2/labelers/deadbeef/answers", answerOne("k", false), http.StatusNotFound},
		{"unknown session report", http.MethodGet, "/v2/labelers/deadbeef/report", nil, http.StatusNotFound},
		{"unknown session export", http.MethodGet, "/v2/labelers/deadbeef/export", nil, http.StatusNotFound},
		{"unknown session delete", http.MethodDelete, "/v2/labelers/deadbeef", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var env darwin.ErrorEnvelope
		if status := doJSON(t, ts, tc.method, tc.path, tc.body, &env); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		} else if env.Message == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// Answering without a pending suggestion, and with a mismatched key, are
	// conflicts that leave the session usable.
	base := "/v2/labelers/" + createSession(t, ts, 5).ID
	if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne("k", true), nil); status != http.StatusConflict {
		t.Fatalf("answer with no pending suggestion: status %d", status)
	}
	var sug darwin.Suggestion
	if status := doJSON(t, ts, http.MethodGet, base+"/suggestion", nil, &sug); status != http.StatusOK || sug.Key == "" {
		t.Fatalf("suggest: status %d key=%q", status, sug.Key)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne("wrong", true), nil); status != http.StatusConflict {
		t.Fatalf("mismatched answer key: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answers", answerOne(sug.Key, true), nil); status != http.StatusOK {
		t.Fatalf("valid answer after conflicts: status %d", status)
	}
}

// TestSoloLabelerCapacity pins that solo labelers count against
// MaxWorkspaces, and a create beyond it is refused as unavailable.
func TestSoloLabelerCapacity(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxWorkspaces: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	make1 := func() int {
		return doJSON(t, ts, http.MethodPost, "/v2/labelers", darwin.CreateOptions{
			Dataset:   "directions",
			SeedRules: []string{"best way to get to"},
			Budget:    5,
		}, nil)
	}
	for i := 0; i < 2; i++ {
		if status := make1(); status != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, status)
		}
	}
	if status := make1(); status != http.StatusServiceUnavailable {
		t.Fatalf("create beyond capacity: status %d", status)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no datasets should error")
	}
	if _, err := New(Config{}, &Dataset{Name: "", Engine: nil}); err == nil {
		t.Error("nameless/engineless dataset should error")
	}
	srv, c := newTestServer(t, Config{})
	_ = c
	d := srv.datasets["directions"]
	if _, err := New(Config{}, d, d); err == nil {
		t.Error("duplicate dataset should error")
	}
}

// TestNewClosesWhatItOpenedOnError pins that a New failing after the
// workspace journal opened closes everything it had opened so far (journal
// writer, replication node) instead of leaking their descriptors, and that
// a jobs dir without a journal is refused before anything is created.
func TestNewClosesWhatItOpenedOnError(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open descriptors")
	}
	srv, _ := newTestServer(t, Config{})
	d := srv.datasets["directions"]
	dir := t.TempDir()
	// A regular file where the jobs directory belongs makes its open fail.
	jobsFile := filepath.Join(dir, "jobs")
	if err := os.WriteFile(jobsFile, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"jobs dir", Config{JournalPath: filepath.Join(dir, "b.jsonl"), JobsDir: jobsFile}},
		// Job records ride the workspace journal: a jobs dir alone is
		// refused before anything opens.
		{"jobs dir without journal", Config{JobsDir: filepath.Join(dir, "jobs-only")}},
	}
	for _, tc := range cases {
		before := openFDs()
		if _, err := New(tc.cfg, d); err == nil {
			t.Fatalf("%s: New succeeded", tc.name)
		}
		if leaked := openFDs() - before; leaked != 0 {
			t.Errorf("%s: failing New left %d descriptors open", tc.name, leaked)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs-only")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused jobs dir was created anyway: %v", err)
	}
}
