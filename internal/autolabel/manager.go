package autolabel

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workspace"
)

// Job-subsystem telemetry: fleet dashboards watch queue depth and failure
// rate here, and the per-stage histograms attribute a slow job to rule
// resolution versus EM versus output I/O.
var (
	jobsByState = obs.Default().GaugeVec("darwin_autolabel_jobs",
		"Labeling jobs currently tracked by the manager, by state.",
		"state")
	jobsCompleted = obs.Default().CounterVec("darwin_autolabel_jobs_completed_total",
		"Labeling jobs that reached a terminal state, by result (done, failed, canceled).",
		"result")
	sentencesLabeled = obs.Default().Counter("darwin_autolabel_sentences_labeled_total",
		"Sentences written to labeling-job outputs.")
	stageDurations = obs.Default().HistogramVec("darwin_autolabel_stage_duration_seconds",
		"Latency of labeling-job pipeline stages.",
		obs.LatencyBuckets, "stage")
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the wire status of a labeling job — the body of
// GET /v2/datasets/{ds}/labeling-jobs/{id} and of the create response.
type JobStatus struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	State   string `json:"state"`
	// Stage is the pipeline stage a running job is in.
	Stage string `json:"stage,omitempty"`
	// Rules / Sentences are committee and corpus sizes; SentencesLabeled is
	// the write-stage progress counter (== Sentences when done).
	Rules            int `json:"rules"`
	Sentences        int `json:"sentences,omitempty"`
	SentencesLabeled int `json:"sentences_labeled"`
	// Covered / Positives / OutputBytes are filled when the job is done.
	Covered     int    `json:"covered,omitempty"`
	Positives   int    `json:"positives,omitempty"`
	OutputBytes int64  `json:"output_bytes,omitempty"`
	Error       string `json:"error,omitempty"`
	// Spec is the resolved spec the job runs (self-contained: any labeler
	// reference was expanded into rule strings before submission).
	Spec Spec `json:"spec"`
}

// ManagerConfig configures a labeling-job Manager.
type ManagerConfig struct {
	// Dir holds the finished outputs (<id>.jsonl) only; job records live in
	// the workspace manager's journal. Required.
	Dir string
	// Workers bounds concurrent job execution (default 2).
	Workers int
	// TTL is how long terminal jobs and their outputs are retained
	// (default 1h). Expired jobs are swept lazily on Submit/Status calls.
	TTL time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// jobBody is the payload of a workspace.JobRecord: the resolved spec and
// the corpus length pinned at submit (0 for uploaded corpora) on create,
// the result on done, the error on failed. Unix is the record's wall-clock
// second, used only for TTL expiry.
type jobBody struct {
	Spec      *Spec   `json:"spec,omitempty"`
	CorpusLen int     `json:"corpus_len,omitempty"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	Unix      int64   `json:"unix,omitempty"`
}

// job is the manager's in-memory view of one labeling job.
type job struct {
	id      string
	dataset string
	spec    Spec

	mu       sync.Mutex
	state    string
	stage    string
	n        int // corpus size; for the resident corpus, pinned at submit
	labeled  int // write-stage progress
	result   Result
	err      error
	doneUnix int64
	cancel   context.CancelFunc // set while running

	done chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:               j.id,
		Dataset:          j.dataset,
		State:            j.state,
		Stage:            j.stage,
		Rules:            len(j.spec.Rules) + len(j.spec.NegativeRules),
		Sentences:        j.n,
		SentencesLabeled: j.labeled,
		Spec:             j.spec,
	}
	if j.state == StateDone {
		st.Covered = j.result.Covered
		st.Positives = j.result.Positives
		st.OutputBytes = j.result.OutputBytes
		st.Sentences = j.result.Sentences
		st.SentencesLabeled = j.result.Sentences
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// terminal reports whether the job is done or failed. Callers hold j.mu.
func (j *job) terminal() bool { return j.state == StateDone || j.state == StateFailed }

// Manager runs labeling jobs on the workspace manager's engines with
// bounded worker concurrency and a TTL'd job table. Job records ride the
// workspace manager's journal, so they compact, replicate and fail over
// with their dataset; the Manager keeps only execution: workers, queue,
// outputs under Dir, and expiry.
type Manager struct {
	cfg   ManagerConfig
	store *workspace.Manager

	mu     sync.Mutex //darwin:lockrank job
	jobs   map[string]*job
	closed bool

	queue  chan *job
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	// now is the wall clock, swappable in tests for TTL expiry.
	now func() time.Time
}

// NewManager starts the job workers and loads every job the store retains.
// A journal-less store keeps the records in memory only.
func NewManager(cfg ManagerConfig, store *workspace.Manager) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("autolabel: manager requires a directory")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Hour
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("autolabel: create jobs dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		store:  store,
		jobs:   make(map[string]*job),
		queue:  make(chan *job, 128),
		ctx:    ctx,
		cancel: cancel,
		now:    time.Now,
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.Load("")
	return m, nil
}

// OutputPath returns where the job's finished output lives.
func (m *Manager) OutputPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".jsonl")
}

// Load adds the store's retained jobs of a dataset ("" for all) that the
// table lacks: at start, and after a promotion adopted a standby's records.
// Terminal jobs past the TTL expire. Interrupted jobs re-run, and so do done
// jobs whose output is missing (lost, or never replicated to a promoted
// follower); Run is deterministic, so a re-run writes the same bytes.
func (m *Manager) Load(dataset string) {
	cutoff := m.now().Add(-m.cfg.TTL).Unix()
	for _, rj := range m.store.Jobs(dataset) {
		j, err := jobFromRecords(rj)
		if err != nil {
			m.cfg.Logf("autolabel: skipping job %s: %v", rj.Records[0].ID, err)
			continue
		}
		if j.terminal() && j.doneUnix < cutoff {
			m.expire(j)
			continue
		}
		if j.state == StateDone {
			if _, err := os.Stat(m.OutputPath(j.id)); err != nil {
				j.state, j.done = StateQueued, make(chan struct{})
			}
		}
		m.mu.Lock()
		fresh := !m.closed && m.jobs[j.id] == nil
		if fresh {
			m.jobs[j.id] = j
		}
		m.mu.Unlock()
		if fresh && j.state == StateQueued {
			m.cfg.Logf("autolabel: re-running job %s (dataset %s)", j.id, j.dataset)
			m.enqueue(j)
		}
	}
	m.updateStateGauges()
}

// jobFromRecords rebuilds a job from its retained records.
func jobFromRecords(rj workspace.Job) (*job, error) {
	bodies := make([]jobBody, len(rj.Records))
	for i, rec := range rj.Records {
		if err := json.Unmarshal(rec.Body, &bodies[i]); err != nil {
			return nil, fmt.Errorf("corrupt %s record: %v", rec.Kind, err)
		}
	}
	if bodies[0].Spec == nil {
		return nil, errors.New("create record without a spec")
	}
	j := &job{id: rj.Records[0].ID, dataset: rj.Dataset, spec: *bodies[0].Spec,
		state: StateQueued, n: bodies[0].CorpusLen, done: make(chan struct{})}
	if len(bodies) == 2 {
		end := bodies[1]
		switch {
		case rj.Records[1].Kind == workspace.JobFailed:
			j.state, j.err = StateFailed, errors.New(end.Error)
		case end.Result != nil:
			j.state, j.result = StateDone, *end.Result
			j.n, j.labeled = end.Result.Sentences, end.Result.Sentences
		default:
			return nil, errors.New("done record without a result")
		}
		j.doneUnix = end.Unix
		close(j.done)
	}
	return j, nil
}

// Drop forgets a dataset's jobs once the store dropped their records (the
// demotion path): running jobs are canceled, queued ones never start, and
// outputs are deleted — the jobs live on the promoted primary now.
func (m *Manager) Drop(dataset string) {
	m.mu.Lock()
	for id, j := range m.jobs {
		if j.dataset != dataset {
			continue
		}
		delete(m.jobs, id)
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		os.Remove(m.OutputPath(id))
	}
	m.mu.Unlock()
	m.updateStateGauges()
}

// record journals one job record through the store.
func (m *Manager) record(j *job, kind string, body jobBody) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return m.store.AppendJob(j.dataset, workspace.JobRecord{Kind: kind, ID: j.id, Body: data})
}

func (m *Manager) updateStateGauges() {
	counts := map[string]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for state, n := range counts {
		jobsByState.With(state).Set(float64(n))
	}
}

// newJobID returns a fresh random job id ("j" + 16 hex chars).
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates the spec, journals the job and enqueues it. The spec must
// be fully resolved (no labeler reference). A job on the resident corpus
// pins the corpus length at submit. The returned status is the
// queued-state snapshot carrying the job id.
func (m *Manager) Submit(dataset string, spec Spec) (JobStatus, error) {
	eng, ok := m.store.Engine(dataset)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownDataset, dataset)
	}
	if err := spec.Validate(eng); err != nil {
		return JobStatus{}, err
	}
	m.sweep()
	j := &job{id: newJobID(), dataset: dataset, spec: spec, state: StateQueued, done: make(chan struct{})}
	if spec.Corpus == "" {
		j.n = eng.CorpusLen()
	}
	if m.ctx.Err() != nil {
		return JobStatus{}, ErrDisabled // closing
	}
	if err := m.record(j, workspace.JobCreate, jobBody{Spec: &spec, CorpusLen: j.n, Unix: m.now().Unix()}); err != nil {
		return JobStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrDisabled
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	m.enqueue(j)
	m.updateStateGauges()
	return j.status(), nil
}

// enqueue hands a job to the workers without blocking the caller.
func (m *Manager) enqueue(j *job) {
	select {
	case m.queue <- j:
	default:
		// Queue full: run the enqueue blocking in a goroutine so the caller
		// stays non-blocking; Close drains via context cancellation.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			select {
			case m.queue <- j:
			case <-m.ctx.Done():
			}
		}()
	}
}

// Status returns the job's current status.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.sweep()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done, then
// returns its status. A manager shutdown also unblocks Wait, returning the
// job's current (possibly non-terminal) status instead of hanging on a job
// that will never finish in this process.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-m.ctx.Done():
		return j.status(), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// OpenOutput opens the finished output of a done job for streaming, seeking
// to offset bytes (for resumable downloads). The caller must close the
// reader. Returns ErrNotDone while the job is queued/running and the job's
// failure error if it failed.
func (m *Manager) OpenOutput(id string, offset int64) (io.ReadCloser, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	state, jerr := j.state, j.err
	j.mu.Unlock()
	switch state {
	case StateFailed:
		return nil, fmt.Errorf("%w: job %s failed: %v", ErrNotDone, id, jerr)
	case StateDone:
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, state)
	}
	f, err := os.Open(m.OutputPath(id))
	if err != nil {
		return nil, fmt.Errorf("autolabel: open output of %s: %w", id, err)
	}
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("autolabel: seek output of %s: %w", id, err)
		}
	}
	return f, nil
}

// sweep drops terminal jobs older than the TTL.
func (m *Manager) sweep() {
	cutoff := m.now().Add(-m.cfg.TTL).Unix()
	var expired []*job
	m.mu.Lock()
	for id, j := range m.jobs {
		j.mu.Lock()
		old := j.terminal() && j.doneUnix < cutoff
		j.mu.Unlock()
		if old {
			expired = append(expired, j)
			delete(m.jobs, id)
		}
	}
	m.mu.Unlock()
	for _, j := range expired {
		m.expire(j)
	}
	if len(expired) > 0 {
		m.updateStateGauges()
	}
}

// expire deletes a terminal job's output and journals an expire record, so
// a later load does not resurrect the job.
func (m *Manager) expire(j *job) {
	os.Remove(m.OutputPath(j.id))
	if err := m.record(j, workspace.JobExpire, jobBody{}); err != nil {
		m.cfg.Logf("autolabel: journal expiry of %s: %v", j.id, err)
	}
	m.cfg.Logf("autolabel: expired job %s", j.id)
}

// worker executes jobs from the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job: stream the pipeline into <id>.jsonl.partial, rename
// to <id>.jsonl, then journal the terminal record. The rename-then-journal
// order means a done record always refers to a complete output file; a
// crash in between leaves a create-without-terminal record, and recovery
// re-runs the job to the identical bytes.
func (m *Manager) run(j *job) {
	// Checked and armed under m.mu, so a Drop either skips the job or
	// cancels it.
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	m.mu.Lock()
	live := m.jobs[j.id] == j
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	m.mu.Unlock()
	if !live {
		close(j.done) // dropped while queued
		return
	}
	// The store keeps no job records for a dataset it does not serve.
	eng, _ := m.store.Engine(j.dataset)
	n := j.n
	if j.spec.Corpus != "" {
		// Uploaded corpus: label the spec's own sentences through a
		// streaming engine (same grammars/kernel/seed as the dataset, no
		// interactive index). Built fresh per run — it is a pure function
		// of the journaled spec, so recovery re-runs reproduce the bytes.
		batch, err := j.spec.DecodeCorpus()
		if err != nil {
			m.finishFailed(j, err)
			return
		}
		seng, err := core.NewStreamingFromBatch(j.dataset+"/upload", batch, eng.Config())
		if err != nil {
			m.finishFailed(j, fmt.Errorf("%w: %v", ErrInvalidSpec, err))
			return
		}
		eng, n = seng, seng.CorpusLen()
	}
	j.mu.Lock()
	j.state = StateRunning
	j.stage = StageResolve
	j.n = n
	j.mu.Unlock()
	m.updateStateGauges()

	partial := m.OutputPath(j.id) + ".partial"
	f, err := os.Create(partial)
	if err != nil {
		m.finishFailed(j, fmt.Errorf("autolabel: create output: %w", err))
		return
	}
	stageStart := time.Now()
	lastStage := StageResolve
	prevLabeled := 0
	progress := func(stage string, done, total int) {
		if stage != lastStage {
			stageDurations.With(lastStage).ObserveSince(stageStart)
			stageStart = time.Now()
			lastStage = stage
		}
		j.mu.Lock()
		j.stage = stage
		if stage == StageWrite {
			j.labeled = done
		}
		j.mu.Unlock()
		if stage == StageWrite {
			sentencesLabeled.Add(uint64(done - prevLabeled))
			prevLabeled = done
		}
	}
	res, err := runPrefix(ctx, eng, j.spec, n, f, progress)
	stageDurations.With(lastStage).ObserveSince(stageStart)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("autolabel: close output: %w", cerr)
	}
	if err != nil {
		os.Remove(partial)
		if ctx.Err() != nil {
			// Manager shutdown or a dropped dataset: journal no terminal
			// record, so the next load re-runs the job, but close j.done
			// (back in the queued state) so in-process waiters unblock.
			m.cfg.Logf("autolabel: job %s interrupted", j.id)
			j.mu.Lock()
			j.state = StateQueued
			j.stage = ""
			j.mu.Unlock()
			close(j.done)
			return
		}
		m.finishFailed(j, err)
		return
	}
	if err := os.Rename(partial, m.OutputPath(j.id)); err != nil {
		m.finishFailed(j, fmt.Errorf("autolabel: publish output: %w", err))
		return
	}
	now := m.now().Unix()
	if err := m.record(j, workspace.JobDone, jobBody{Result: &res, Unix: now}); err != nil {
		m.cfg.Logf("autolabel: journal done record for %s: %v", j.id, err)
	}
	j.mu.Lock()
	j.state = StateDone
	j.stage = ""
	j.result = res
	j.labeled = res.Sentences
	j.doneUnix = now
	j.mu.Unlock()
	close(j.done)
	jobsCompleted.With("done").Inc()
	m.updateStateGauges()
}

func (m *Manager) finishFailed(j *job, err error) {
	now := m.now().Unix()
	if jerr := m.record(j, workspace.JobFailed, jobBody{Error: err.Error(), Unix: now}); jerr != nil {
		m.cfg.Logf("autolabel: journal failure record for %s: %v", j.id, jerr)
	}
	j.mu.Lock()
	j.state = StateFailed
	j.stage = ""
	j.err = err
	j.doneUnix = now
	j.mu.Unlock()
	close(j.done)
	jobsCompleted.With("failed").Inc()
	m.cfg.Logf("autolabel: job %s failed: %v", j.id, err)
	m.updateStateGauges()
}

// Close stops the workers, canceling any running job without journaling a
// terminal record, so it re-runs when the records are next loaded.
func (m *Manager) Close() error {
	m.cancel()
	m.wg.Wait()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}
