package autolabel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/tokensregex"
	"repro/internal/workspace"
)

// testEngine builds a small directions engine with the fast configuration the
// server tests use.
func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(c, core.Config{
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
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testSpec() Spec {
	return Spec{
		Rules:       []string{"best way to get to", "how do i get"},
		Aggregator:  AggregatorGenerative,
		IncludeProb: true,
		ChunkSize:   64,
	}
}

func runOnce(t *testing.T, eng *core.Engine, spec Spec) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(context.Background(), eng, spec, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestRunDeterministic(t *testing.T) {
	eng := testEngine(t)
	for _, agg := range []string{AggregatorMajority, AggregatorGenerative} {
		spec := testSpec()
		spec.Aggregator = agg
		a, resA := runOnce(t, eng, spec)
		b, resB := runOnce(t, eng, spec)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs differ", agg)
		}
		if resA != resB {
			t.Fatalf("%s: results differ: %+v vs %+v", agg, resA, resB)
		}
		if resA.Sentences != eng.Corpus().Len() {
			t.Errorf("%s: labeled %d of %d sentences", agg, resA.Sentences, eng.Corpus().Len())
		}
		if resA.Covered == 0 || resA.Positives == 0 {
			t.Errorf("%s: committee covered nothing: %+v", agg, resA)
		}
		if resA.OutputBytes != int64(len(a)) {
			t.Errorf("%s: OutputBytes %d != written %d", agg, resA.OutputBytes, len(a))
		}
		lines := bytes.Split(bytes.TrimSuffix(a, []byte("\n")), []byte("\n"))
		if len(lines) != resA.Sentences {
			t.Fatalf("%s: %d output lines for %d sentences", agg, len(lines), resA.Sentences)
		}
		var rec struct {
			ID    int      `json:"id"`
			Text  string   `json:"text"`
			Label int      `json:"label"`
			Prob  *float64 `json:"prob"`
		}
		if err := json.Unmarshal(lines[0], &rec); err != nil {
			t.Fatalf("%s: first line is not JSON: %v", agg, err)
		}
		if rec.Text == "" || rec.Prob == nil {
			t.Errorf("%s: first record incomplete: %s", agg, lines[0])
		}
	}
}

func TestRunProgressAndCancel(t *testing.T) {
	eng := testEngine(t)
	stages := map[string]bool{}
	var buf bytes.Buffer
	if _, err := Run(context.Background(), eng, testSpec(), &buf, func(stage string, done, total int) {
		stages[stage] = true
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{StageResolve, StageVotes, StageAggregate, StageWrite} {
		if !stages[want] {
			t.Errorf("progress never reported stage %q", want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, eng, testSpec(), io.Discard, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	eng := testEngine(t)
	cases := []struct {
		name string
		spec Spec
	}{
		{"no rules", Spec{}},
		{"unknown aggregator", Spec{Rules: []string{"best way"}, Aggregator: "quorum"}},
		{"unresolved labeler", Spec{Rules: []string{"best way"}, Labeler: "sess-1"}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(eng); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate = %v, want ErrInvalidSpec", tc.name, err)
		}
		if _, err := Run(context.Background(), eng, tc.spec, io.Discard, nil); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Run = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

// journalPath is where the test managers' shared workspace journal lives.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// newTestManager opens the workspace journal in dir (recovering whatever it
// holds) and starts a job manager over it with outputs in dir — what a
// darwind with -journal and -jobs-dir does at start.
func newTestManager(t *testing.T, dir string, eng *core.Engine) *Manager {
	t.Helper()
	jw, events, err := journal.Open(journalPath(dir), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := workspace.NewManager(map[string]*core.Engine{"directions": eng}, jw, workspace.ManagerConfig{})
	store.Recover(events)
	t.Cleanup(func() { store.Close() })
	m, err := NewManager(ManagerConfig{Dir: dir, Workers: 1, Logf: t.Logf}, store)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// closeManager stops the job manager and closes its journal, as a server
// shutdown does, so the next newTestManager on the same dir reopens it.
func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeJobEvents appends raw job events to the journal in dir, bypassing
// the manager's dedup — the shapes only a crash or an older log leaves.
func writeJobEvents(t *testing.T, dir string, recs ...workspace.JobRecord) {
	t.Helper()
	jw, _, err := journal.Open(journalPath(dir), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := jw.Append("job", "", "directions", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

func jobRec(t *testing.T, kind, id string, body jobBody) workspace.JobRecord {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return workspace.JobRecord{Kind: kind, ID: id, Body: data}
}

// journalJobEvents returns the job events in dir's journal, per job id.
func journalJobEvents(t *testing.T, dir string) map[string][]string {
	t.Helper()
	events, err := journal.ReadAll(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, ev := range events {
		if ev.Type != "job" {
			continue
		}
		var rec workspace.JobRecord
		if err := json.Unmarshal(ev.Data, &rec); err != nil {
			t.Fatal(err)
		}
		out[rec.ID] = append(out[rec.ID], rec.Kind)
	}
	return out
}

func waitDone(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func readOutput(t *testing.T, m *Manager, id string, offset int64) []byte {
	t.Helper()
	rc, err := m.OpenOutput(id, offset)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestManagerLifecycle(t *testing.T) {
	eng := testEngine(t)
	direct, directRes := runOnce(t, eng, testSpec())
	m := newTestManager(t, t.TempDir(), eng)
	defer m.Close()

	if _, err := m.Submit("nope", testSpec()); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := m.Submit("directions", Spec{}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid spec: %v", err)
	}
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Dataset != "directions" {
		t.Fatalf("queued status %+v", st)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Covered != directRes.Covered || st.Positives != directRes.Positives ||
		st.OutputBytes != directRes.OutputBytes || st.SentencesLabeled != directRes.Sentences {
		t.Errorf("done status %+v does not match direct result %+v", st, directRes)
	}
	if got := readOutput(t, m, st.ID, 0); !bytes.Equal(got, direct) {
		t.Error("job output differs from direct Run output")
	}
	// Resumable download: offset skips exactly the prefix.
	if got := readOutput(t, m, st.ID, 100); !bytes.Equal(got, direct[100:]) {
		t.Error("offset read differs from output suffix")
	}
	if _, err := m.Status("jmissing"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: %v", err)
	}
}

func TestManagerReplayInterruptedJob(t *testing.T) {
	eng := testEngine(t)
	direct, _ := runOnce(t, eng, testSpec())
	dir := t.TempDir()

	// A create record with no terminal record is exactly what a SIGKILL
	// mid-job leaves behind; a torn trailing line is a crash mid-append.
	spec := testSpec()
	writeJobEvents(t, dir, jobRec(t, workspace.JobCreate, "jdeadbeef00000000", jobBody{Spec: &spec, CorpusLen: eng.CorpusLen(), Unix: 1}))
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"type":"job","dataset":"directions","data":{"kind":"done","id":"jdeadbe`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m := newTestManager(t, dir, eng)
	defer m.Close()
	st := waitDone(t, m, "jdeadbeef00000000")
	if st.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
	}
	if got := readOutput(t, m, st.ID, 0); !bytes.Equal(got, direct) {
		t.Error("recovered job output differs from direct Run output")
	}
}

func TestManagerReopenRestoresAndRebuilds(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	closeManager(t, m)

	// Reopen: the done record restores the status without re-running.
	m2 := newTestManager(t, dir, eng)
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || st2.OutputBytes != st.OutputBytes {
		t.Fatalf("reopened status %+v, want done with %d bytes", st2, st.OutputBytes)
	}
	if got := readOutput(t, m2, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("output changed across reopen")
	}
	closeManager(t, m2)

	// Delete the output: reopen must notice and rebuild identical bytes.
	if err := os.Remove(m2.OutputPath(st.ID)); err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, dir, eng)
	defer m3.Close()
	st3 := waitDone(t, m3, st.ID)
	if st3.State != StateDone {
		t.Fatalf("rebuilt job ended %s: %s", st3.State, st3.Error)
	}
	if got := readOutput(t, m3, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("rebuilt output differs from original")
	}
}

// TestManagerRebuildPinsCorpus pins that a job labels the corpus it was
// submitted over: after later ingest, rebuilding a lost output must write
// the original bytes and result, not label the grown corpus.
func TestManagerRebuildPinsCorpus(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	before := eng.CorpusLen()
	// The batch matches "best way to get to" but not "how do i get": that
	// key is pruned at boot, and a pruned key that ingest re-creates covers
	// only the ingested sentences — an index defect of its own, which would
	// change the rebuilt bytes however the job pins its corpus.
	if _, _, err := m.store.Ingest("directions", []ingest.Sentence{
		{Text: "best way to get to the ferry terminal"},
		{Text: "the weather is lovely today"},
	}); err != nil {
		t.Fatal(err)
	}
	if eng.CorpusLen() != before+2 {
		t.Fatalf("corpus has %d sentences after ingest, want %d", eng.CorpusLen(), before+2)
	}
	closeManager(t, m)
	if err := os.Remove(m.OutputPath(st.ID)); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	st2 := waitDone(t, m2, st.ID)
	if st2.State != StateDone {
		t.Fatalf("rebuilt job ended %s: %s", st2.State, st2.Error)
	}
	if st2.Sentences != before || st2.Covered != st.Covered || st2.Positives != st.Positives || st2.OutputBytes != st.OutputBytes {
		t.Errorf("rebuilt status %+v, want the original %+v over %d sentences", st2, st, before)
	}
	if got := readOutput(t, m2, st.ID, 0); !bytes.Equal(got, want) {
		t.Errorf("rebuilt output (%d bytes) differs from the original (%d bytes)", len(got), len(want))
	}
}

func TestPosThresholdExplicitZero(t *testing.T) {
	eng := testEngine(t)
	if sp := (Spec{}).withDefaults(); *sp.PosThreshold != 0.5 {
		t.Errorf("unset threshold resolved to %v, want 0.5", *sp.PosThreshold)
	}
	zero := 0.0
	if sp := (Spec{PosThreshold: &zero}).withDefaults(); *sp.PosThreshold != 0 {
		t.Errorf("explicit zero threshold resolved to %v, want 0", *sp.PosThreshold)
	}
	// Generative aggregation gives every uncovered sentence the class prior
	// (> 0 with a positive committee), so threshold 0 labels the whole corpus
	// while the default 0.5 leaves the prior-sitting sentences negative.
	specDefault := testSpec()
	_, resDefault := runOnce(t, eng, specDefault)
	specZero := testSpec()
	specZero.PosThreshold = &zero
	_, resZero := runOnce(t, eng, specZero)
	if resZero.Positives != resZero.Sentences {
		t.Errorf("threshold 0 labeled %d of %d sentences positive", resZero.Positives, resZero.Sentences)
	}
	if resDefault.Positives >= resDefault.Sentences {
		t.Errorf("default threshold labeled the whole corpus positive (%d)", resDefault.Positives)
	}
}

// TestManagerReplayDuplicateTerminalRecords pins that replay tolerates a
// journal holding several terminal records for one id: the first terminal
// record wins, and later ones change nothing.
func TestManagerReplayDuplicateTerminalRecords(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	spec := testSpec()
	res := Result{Sentences: 5, Rules: 2, Covered: 3, Positives: 2, OutputBytes: 11}
	now := time.Now().Unix()
	writeJobEvents(t, dir,
		jobRec(t, workspace.JobCreate, "jdup0000000000000", jobBody{Spec: &spec, CorpusLen: 5, Unix: 1}),
		jobRec(t, workspace.JobDone, "jdup0000000000000", jobBody{Result: &res, Unix: now}),
		jobRec(t, workspace.JobDone, "jdup0000000000000", jobBody{Result: &Result{Sentences: 9}, Unix: now}),
		jobRec(t, workspace.JobFailed, "jdup0000000000000", jobBody{Error: "boom", Unix: now}),
	)
	if err := os.WriteFile(filepath.Join(dir, "jdup0000000000000.jsonl"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, dir, eng)
	defer m.Close()
	st, err := m.Status("jdup0000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Error != "" || st.Covered != res.Covered || st.Sentences != res.Sentences {
		t.Errorf("replayed status %+v, want done matching the first terminal record", st)
	}
}

// TestManagerJournalCompaction drives the record lifecycle through the
// shared journal: a rebuilt output's second done record and an expired
// job's records must not survive a forced workspace.Manager.Compact, which
// keeps one create plus at most one terminal record per live job.
func TestManagerJournalCompaction(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	expired, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, expired.ID)
	m.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, err := m.Status(expired.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job status: %v", err)
	}
	m.now = time.Now
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	closeManager(t, m)
	if err := os.Remove(m.OutputPath(st.ID)); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, eng)
	waitDone(t, m2, st.ID)
	if err := m2.store.Compact(); err != nil {
		t.Fatal(err)
	}
	closeManager(t, m2)
	recs := journalJobEvents(t, dir)
	if got := recs[st.ID]; len(got) != 2 || got[0] != workspace.JobCreate || got[1] != workspace.JobDone {
		t.Errorf("compacted journal holds %v for the live job, want [create done]", got)
	}
	if got := recs[expired.ID]; len(got) != 0 {
		t.Errorf("compacted journal holds %v for the expired job, want nothing", got)
	}
	if len(recs) != 1 {
		t.Errorf("compacted journal holds job records for %d ids, want 1", len(recs))
	}

	m3 := newTestManager(t, dir, eng)
	defer m3.Close()
	st3, err := m3.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != StateDone {
		t.Fatalf("job is %s after compaction: %s", st3.State, st3.Error)
	}
	if got := readOutput(t, m3, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("output changed across compaction")
	}
	if _, err := m3.Status(expired.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("expired job resurrected by compaction: %v", err)
	}
}

// TestManagerExpiredJobsStayDeadAcrossReopen pins that a TTL sweep is
// journaled: reopening after an expiry must not resurrect (and re-run) the
// expired job from its create + done records.
func TestManagerExpiredJobsStayDeadAcrossReopen(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	m.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, err := m.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job status: %v", err)
	}
	closeManager(t, m)

	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	if _, err := m2.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("expired job resurrected across reopen: %v", err)
	}
	if jobs := m2.store.Jobs(""); len(jobs) != 0 {
		t.Errorf("the journal still retains %d expired jobs", len(jobs))
	}
}

// TestManagerDropCancelsDatasetJobs pins the demotion path: once the store
// evicts a dataset, Drop cancels its running job and forgets its finished
// one (output deleted), and neither comes back on reopen.
func TestManagerDropCancelsDatasetJobs(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	done, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, done.ID)
	slowSpec := testSpec()
	// Keeps the job in its aggregate stage past the drop; the cancel lands
	// at the next chunk boundary of the write stage.
	slowSpec.EMIterations = 100000
	running, err := m.Submit("directions", slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	for st, _ := m.Status(running.ID); st.State != StateRunning; st, _ = m.Status(running.ID) {
		time.Sleep(time.Millisecond)
	}
	waited := make(chan JobStatus, 1)
	go func() {
		st, err := m.Wait(context.Background(), running.ID)
		if err != nil {
			t.Error(err)
		}
		waited <- st
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter find the job
	if _, jobs := m.store.EvictDataset("directions", "demoted"); len(jobs) != 2 {
		t.Fatalf("store evicted %d jobs, want 2", len(jobs))
	}
	m.Drop("directions")
	select {
	case st := <-waited:
		if st.State == StateDone {
			t.Error("dropped job ran to completion")
		}
	case <-time.After(time.Minute):
		t.Fatal("dropped running job was not canceled")
	}
	for _, id := range []string{done.ID, running.ID} {
		if _, err := m.Status(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("dropped job %s: %v, want ErrUnknownJob", id, err)
		}
	}
	if _, err := os.Stat(m.OutputPath(done.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("dropped job's output still on disk: %v", err)
	}
	closeManager(t, m)
	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	if _, err := m2.Status(running.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("dropped job came back on reopen: %v", err)
	}
}

// TestWaitUnblocksOnClose pins that Close leaves no Wait caller hanging:
// neither the job interrupted mid-run nor the one still sitting in the queue.
func TestWaitUnblocksOnClose(t *testing.T) {
	eng := testEngine(t)
	m := newTestManager(t, t.TempDir(), eng)
	slowSpec := testSpec()
	slowSpec.EMIterations = 300000 // keeps the job mid-aggregate until Close
	running, err := m.Submit("directions", slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("directions", slowSpec) // Workers: 1, so this one waits
	if err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan struct{})
	go func() {
		defer close(unblocked)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, id := range []string{running.ID, queued.ID} {
			if _, err := m.Wait(ctx, id); err != nil {
				t.Errorf("Wait(%s) after Close: %v", id, err)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait callers still blocked after Close")
	}
}

func TestManagerTTLSweep(t *testing.T) {
	eng := testEngine(t)
	m := newTestManager(t, t.TempDir(), eng)
	defer m.Close()
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	outPath := m.OutputPath(st.ID)
	if _, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, err := m.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("expired job status: %v", err)
	}
	if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("expired output still on disk: %v", err)
	}
}

func TestSnubaBaselineDeterministic(t *testing.T) {
	eng := testEngine(t)
	req := SnubaRequest{SeedSize: 200, Seed: 3, MinPrecision: 0.5, CompareRules: []string{"best way to get to"}}
	a, err := RunSnuba(eng, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSnuba(eng, req)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snuba baseline not deterministic:\n%s\n%s", aj, bj)
	}
	if len(a.Rules) == 0 {
		t.Fatal("snuba mined no rules")
	}
	for _, r := range a.Rules {
		if strings.TrimSpace(r.Rule) == "" {
			t.Fatalf("empty rule display form in %+v", r)
		}
	}
	if a.Compare == nil || a.Compare.Rules != 1 {
		t.Errorf("compare committee missing: %+v", a.Compare)
	}
	if a.Snuba.Covered == 0 {
		t.Errorf("snuba committee covered nothing: %+v", a.Snuba)
	}
	// The mined rule strings must round-trip through a labeling job.
	rules := make([]string, 0, len(a.Rules))
	for _, r := range a.Rules {
		rules = append(rules, r.Rule)
	}
	if _, err := Run(context.Background(), eng, Spec{Rules: rules}, io.Discard, nil); err != nil {
		t.Errorf("mined rules do not run as a labeling spec: %v", err)
	}
}
