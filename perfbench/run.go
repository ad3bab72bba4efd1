package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autolabel"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// Epilogue sizes. After the run, labeling jobs top the run up to minJobs
// jobs; workloads without ingest traffic send probeBatches ingest batches of
// probeBatch sentences back to back.
const (
	minJobs      = 24
	probeBatches = 100
	probeBatch   = 10
	jobPoll      = time.Millisecond
	// restarts is how many times the primary is restarted for recovery_s.
	restarts = 3
)

// step is one annotator wait: from sending an answer to the return of the
// next suggestion.
type step struct {
	ms     float64
	accept bool
	traced bool
}

// spentWorkspace is what the run keeps of a workspace whose budget ran out.
type spentWorkspace struct {
	index  int
	digest string // sha256 of the final report (deterministic workloads)
}

// runner drives one workload against a stack.
type runner struct {
	in  *inputs
	st  *stack
	tr  *tracer
	ctx context.Context

	stop      atomic.Bool
	attempted atomic.Int64
	failed    atomic.Int64
	stepSeq   atomic.Int64

	mu         sync.Mutex
	steps      []step
	ingestMs   []float64
	ingestLate time.Duration
	labelRates []float64 // sentences per second of each labeling job
	problems   []string
	spent      []spentWorkspace
	open       []*darwin.RemoteLabeler // attachments open when the clock stopped
	bestP      []int                   // the largest positive set any report showed
	lagMax     float64

	wsMu  sync.Mutex
	wsIDs map[int]string
}

func newRunner(ctx context.Context, in *inputs, st *stack) *runner {
	return &runner{in: in, st: st, tr: st.tr, ctx: ctx, wsIDs: map[int]string{}}
}

// op counts one SDK operation; running out of budget is an answer, not a
// failure.
func (r *runner) op(err error) error {
	r.attempted.Add(1)
	if err != nil && !errors.Is(err, darwin.ErrBudgetExhausted) {
		r.failed.Add(1)
	}
	return err
}

// fail records a failed correctness check.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// main runs the workload's traffic for d, then stops every client and
// returns once they have ended.
func (r *runner) main(d time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < r.in.w.annotators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.annotator(i)
		}(i)
	}
	if r.in.w.ingestEvery > 0 {
		every := time.Duration(r.in.w.ingestEvery * float64(time.Second))
		batches := ingestBatches(r.in.w, r.in.seed, int(d/every)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ingestLoop(batches, every, start.Add(d))
		}()
	}
	if r.tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sampleLag(start.Add(d))
		}()
	}
	stopJanitors := make(chan struct{})
	var janitors sync.WaitGroup
	for _, n := range r.st.shards {
		janitors.Add(1)
		go func(mgr *workspace.Manager) {
			defer janitors.Done()
			mgr.Janitor(workspaceTTL/4, stopJanitors)
		}(n.srv.Workspaces())
	}
	time.Sleep(d)
	r.stop.Store(true)
	wg.Wait()
	close(stopJanitors)
	janitors.Wait()
	return time.Since(start)
}

// sampleLag tracks the highest replication lag the program reports while
// the traffic runs (traced runs only).
func (r *runner) sampleLag(end time.Time) {
	for time.Now().Before(end) {
		if snap, err := scrape(); err == nil {
			lag := snap.max("darwin_replication_lag_events", nil)
			r.mu.Lock()
			r.lagMax = max(r.lagMax, lag)
			r.mu.Unlock()
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// attach joins workspace k, creating it when this annotator is first there.
func (r *runner) attach(idx, k int) (*darwin.RemoteLabeler, error) {
	name := fmt.Sprintf("annotator-%d", idx)
	r.wsMu.Lock()
	defer r.wsMu.Unlock()
	if id, ok := r.wsIDs[k]; ok && r.in.w.share {
		lab, err := r.st.client.NewLabeler(r.ctx, darwin.CreateOptions{Mode: darwin.ModeWorkspace, Workspace: id, Annotator: name})
		return lab, r.op(err)
	}
	opts := darwin.CreateOptions{
		Dataset:   r.in.w.dataset,
		Mode:      darwin.ModeWorkspace,
		Annotator: name,
		SeedRules: []string{r.in.seedRules[k%len(r.in.seedRules)]},
		Budget:    r.in.w.budget,
		Seed:      r.in.seed*1000 + int64(k) + 1,
	}
	st, err := r.st.client.CreateLabeler(r.ctx, opts)
	if r.op(err) != nil {
		return nil, err
	}
	r.wsIDs[k] = st.Workspace
	return r.st.client.OpenLabeler(st.ID), nil
}

// verdict is the scripted annotator: accept iff at least 80% of the shown
// samples are gold-positive (the paper's precision threshold, applied to
// what a human sees).
func (r *runner) verdict(s darwin.Suggestion) bool {
	if len(s.Samples) == 0 {
		return false
	}
	pos := 0
	for _, x := range s.Samples {
		if r.in.isGold(x.ID) {
			pos++
		}
	}
	return pos*5 >= len(s.Samples)*4
}

type ack struct {
	key    string
	accept bool
}

// annotator is one closed-loop annotator: it walks workspaces 0, 1, 2, ...
// (each annotator of a sharing workload attaches to the same ones) until
// the clock stops, leaving its current attachment open.
func (r *runner) annotator(idx int) {
	// Non-sharing annotators take disjoint workspace indices.
	k, stride := idx, r.in.w.annotators
	if r.in.w.share {
		k, stride = 0, 1
	}
	for ; ; k += stride {
		lab, err := r.attach(idx, k)
		if err != nil {
			r.fail("attach workspace %d: %v", k, err)
			return
		}
		if !r.workspace(lab, k) {
			return
		}
	}
}

// workspace drives one attachment until its budget is spent (true) or the
// clock stops (false, attachment left open).
func (r *runner) workspace(lab *darwin.RemoteLabeler, k int) bool {
	var acks []ack
	var sent time.Time // when the last answer was sent; zero before the first
	lastAccept, traced := false, false
	ctx := r.ctx
	for {
		var sug darwin.Suggestion
		var err error
		r.tr.time(obs.RequestIDFrom(ctx), layerSDK, "suggest", func() { sug, err = lab.Suggest(ctx) })
		done := time.Now()
		if errors.Is(r.op(err), darwin.ErrBudgetExhausted) {
			r.finishWorkspace(lab, k, acks)
			return true
		}
		if err != nil {
			r.fail("suggest: %v", err)
			return false
		}
		if !sent.IsZero() {
			r.mu.Lock()
			r.steps = append(r.steps, step{ms: ms(done.Sub(sent)), accept: lastAccept, traced: traced})
			r.mu.Unlock()
		}
		if r.stop.Load() {
			r.mu.Lock()
			r.open = append(r.open, lab)
			r.mu.Unlock()
			return false
		}
		accept := r.verdict(sug)
		ctx, traced = r.stepContext()
		sent = time.Now()
		r.tr.time(obs.RequestIDFrom(ctx), layerSDK, "answer", func() { err = lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: accept}) })
		if r.op(err) != nil {
			r.fail("answer %s: %v", sug.Key, err)
			sent = time.Time{}
			continue
		}
		acks = append(acks, ack{sug.Key, accept})
		lastAccept = accept
	}
}

// stepContext carries a traced request id on every other step of a traced
// run, so one run yields both traced and untraced steps.
func (r *runner) stepContext() (context.Context, bool) {
	n := r.stepSeq.Add(1)
	if r.tr == nil || n%2 == 1 {
		return r.ctx, false
	}
	return obs.WithRequestID(r.ctx, fmt.Sprintf("%s%d", tracedPrefix, n)), true
}

// finishWorkspace checks a spent workspace's report against the answers
// this annotator had acknowledged, labels with its rules when the workload
// does so inline, and closes the attachment.
func (r *runner) finishWorkspace(lab *darwin.RemoteLabeler, k int, acks []ack) {
	rep, err := lab.Report(r.ctx)
	if r.op(err) != nil {
		r.fail("report of workspace %d: %v", k, err)
		return
	}
	r.checkAcks(k, rep, acks)
	sw := spentWorkspace{index: k}
	if r.in.w.deterministic() {
		raw, _ := json.Marshal(rep)
		sum := sha256.Sum256(raw)
		sw.digest = hex.EncodeToString(sum[:8])
	}
	r.mu.Lock()
	r.spent = append(r.spent, sw)
	if len(rep.PositiveIDs) > len(r.bestP) {
		r.bestP = rep.PositiveIDs
	}
	r.mu.Unlock()
	if r.in.w.labelInline {
		r.labelJob(autolabel.Spec{Labeler: lab.ID(), Aggregator: autolabel.AggregatorGenerative})
	}
	if err := r.op(lab.Close(r.ctx)); err != nil {
		r.fail("close workspace %d: %v", k, err)
	}
}

// checkAcks requires every acknowledged answer in the report's history.
func (r *runner) checkAcks(k int, rep darwin.Report, acks []ack) {
	hist := map[string]bool{}
	for _, rec := range rep.History {
		hist[rec.Key] = rec.Accepted
	}
	if rep.Questions != len(rep.History) {
		r.fail("workspace %d: report counts %d questions but lists %d", k, rep.Questions, len(rep.History))
	}
	for _, a := range acks {
		got, ok := hist[a.key]
		if !ok || got != a.accept {
			r.fail("workspace %d: acknowledged answer %s (accept=%v) missing from the report", k, a.key, a.accept)
		}
	}
}

// labelJob submits one labeling job through the router, waits for it via
// the SDK and checks its output against its status.
func (r *runner) labelJob(spec autolabel.Spec) {
	ds := r.in.w.dataset
	start := time.Now()
	st, err := r.st.client.CreateLabelingJob(r.ctx, ds, spec)
	if r.op(err) != nil {
		r.fail("labeling job: %v", err)
		return
	}
	st, err = r.st.client.WaitLabelingJob(r.ctx, ds, st.ID, jobPoll)
	wall := time.Since(start)
	if r.op(err) != nil || st.State != autolabel.StateDone {
		r.fail("labeling job %s: state %s err %v %s", st.ID, st.State, err, st.Error)
		return
	}
	var out bytes.Buffer
	if err := r.op(r.st.client.LabelingJobOutput(r.ctx, ds, st.ID, 0, &out)); err != nil {
		r.fail("labeling job %s output: %v", st.ID, err)
		return
	}
	// One {"id","text","label"} object per line; text is JSON-escaped, so
	// the label key cannot occur inside it.
	lines := bytes.Count(out.Bytes(), []byte("\n"))
	positives := bytes.Count(out.Bytes(), []byte(`"label":1`))
	if lines != st.Sentences || st.SentencesLabeled != st.Sentences || positives != st.Positives {
		r.fail("labeling job %s: %d lines / %d positives in output, status says %d sentences (%d labeled) / %d positives",
			st.ID, lines, positives, st.Sentences, st.SentencesLabeled, st.Positives)
		return
	}
	r.mu.Lock()
	r.labelRates = append(r.labelRates, float64(st.Sentences)/wall.Seconds())
	r.mu.Unlock()
}

// ingestLoop posts batches until end. With every > 0 it is an open loop on
// a fixed schedule, timing each batch from when it was due; with every == 0
// the batches go back to back, each due when the previous one returned.
func (r *runner) ingestLoop(batches [][]ingest.Sentence, every time.Duration, end time.Time) {
	sched := schedule{start: time.Now(), every: every}
	for i, batch := range batches {
		due := sched.due(i)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		res, err := r.st.client.IngestSentences(r.ctx, r.in.w.dataset, batch)
		t := openLoopTiming{latency: time.Since(sent)}
		if every > 0 {
			t = sched.timing(i, sent, sent.Add(t.latency))
		}
		if r.op(err) != nil {
			r.fail("ingest batch %d: %v", i, err)
			continue
		}
		if err := r.checkIngest(res, batch); err != nil {
			r.fail("ingest batch %d: %v", i, err)
			continue
		}
		r.mu.Lock()
		r.ingestMs = append(r.ingestMs, ms(t.latency))
		r.ingestLate = max(r.ingestLate, t.lateness)
		r.mu.Unlock()
	}
}

// checkIngest requires the batch to advance the corpus by exactly its size.
func (r *runner) checkIngest(res darwin.IngestResult, batch []ingest.Sentence) error {
	if res.Ingested != len(batch) || res.CorpusLen != res.From+len(batch) {
		return fmt.Errorf("result %+v for a batch of %d", res, len(batch))
	}
	return r.in.recordIngest(res.From, batch)
}

// snapshotOpen reads the report and export of every open attachment.
func (r *runner) snapshotOpen() ([][2][]byte, error) {
	out := make([][2][]byte, len(r.open))
	for i, o := range r.open {
		rep, err := o.Report(r.ctx)
		if r.op(err) != nil {
			return nil, fmt.Errorf("report %s: %w", o.ID(), err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		var exp bytes.Buffer
		if err := r.op(o.Export(r.ctx, &exp)); err != nil {
			return nil, fmt.Errorf("export %s: %w", o.ID(), err)
		}
		out[i] = [2][]byte{raw, exp.Bytes()}
		if len(rep.PositiveIDs) > len(r.bestP) {
			r.bestP = rep.PositiveIDs
		}
	}
	return out, nil
}

// recover restarts the primary `restarts` times, requiring every open
// attachment's report and export to read back byte-identical after each,
// and returns the median time to serve again.
func (r *runner) recover() (time.Duration, recoveryInfo, error) {
	before, err := r.snapshotOpen()
	if err != nil {
		return 0, recoveryInfo{}, err
	}
	if len(before) == 0 {
		return 0, recoveryInfo{}, errors.New("no attachment open at the end of the run")
	}
	probe := func() error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, err := r.open[0].Report(r.ctx)
			if err == nil || time.Now().After(deadline) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	var times []float64
	var rec workspace.RecoveryStats
	for i := 0; i < restarts; i++ {
		var d time.Duration
		if d, rec, err = r.st.restartPrimary(r.ctx, probe); err != nil {
			return 0, recoveryInfo{}, err
		}
		times = append(times, d.Seconds())
		after, err := r.snapshotOpen()
		if err != nil {
			return 0, recoveryInfo{}, fmt.Errorf("after restart: %w", err)
		}
		for j := range before {
			if !bytes.Equal(before[j][0], after[j][0]) {
				r.fail("labeler %s: report differs after restart %d", r.open[j].ID(), i+1)
			}
			if !bytes.Equal(before[j][1], after[j][1]) {
				r.fail("labeler %s: export differs after restart %d (%d vs %d bytes)", r.open[j].ID(), i+1, len(before[j][1]), len(after[j][1]))
			}
		}
	}
	for _, o := range r.open {
		if err := r.op(o.Close(r.ctx)); err != nil {
			r.fail("close %s: %v", o.ID(), err)
		}
	}
	return time.Duration(median(times) * float64(time.Second)), recoveryInfo{events: rec.Events, workspaces: rec.Workspaces}, nil
}

type recoveryInfo struct{ events, workspaces int }

// epilogue measures what the workload's own traffic did not: labeling
// throughput, with the seed rules as the committee so that every run labels
// with a committee of the same size, and ingest latency on the restarted
// stack.
func (r *runner) epilogue() {
	for need := minJobs - len(r.labelRates); need > 0; need-- {
		r.labelJob(autolabel.Spec{Rules: r.in.seedRules, Aggregator: autolabel.AggregatorGenerative})
	}
	if r.in.w.ingestEvery == 0 {
		w := r.in.w
		w.ingestBatch = probeBatch
		batches := ingestBatches(w, r.in.seed, probeBatches)
		// Back to back: each batch is due when the previous one returns.
		r.ingestLoop(batches, 0, time.Now().Add(time.Hour))
	}
}

// digests lists the spent workspaces' report digests in workspace order,
// for workloads whose script is deterministic.
func (r *runner) digests() string {
	if !r.in.w.deterministic() {
		return ""
	}
	byIndex := map[int]string{}
	maxK := -1
	for _, sw := range r.spent {
		byIndex[sw.index] = sw.digest
		maxK = max(maxK, sw.index)
	}
	var parts []string
	for k := 0; k <= maxK; k++ {
		d, ok := byIndex[k]
		if !ok {
			break
		}
		parts = append(parts, d)
	}
	return strings.Join(parts, ",")
}
