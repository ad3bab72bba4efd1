// Package workspace implements the paper's parallel-discovery deployment
// mode: several annotators attach to one shared Workspace per dataset and
// discover rules over a single shared labeled set. The workspace owns the
// shared positive set P, the classifier and the accepted-rule list; each
// annotator's Suggest draws from the shared candidate hierarchy with
// per-annotator assignment (no two annotators are shown the same candidate
// rule concurrently), and Answer merges accepts/rejects back into the shared
// state under the engine's existing concurrency contract.
//
// # Determinism and replay
//
// A workspace's entire state evolution is a pure function of (engine,
// creation options, applied event sequence): candidate selection is a
// deterministic argmax over the shared hierarchy, and every use of
// randomness (presentation-sample drawing, classifier negative sampling) is
// seeded from the workspace seed and the event sequence number rather than
// from an evolving RNG stream. That is what makes the journal
// (internal/journal) sufficient for crash recovery: replaying the event log
// through the same apply methods that served live traffic reconstructs
// byte-identical workspace state, and a snapshot (which captures the event
// sequence number) resumes the same deterministic stream.
//
// The shared hierarchy is cached across events and regenerated only when
// |P| or the index version changes — once per positive-set change for the
// whole workspace, not once per annotator (HierarchyGenerations exposes the
// count).
package workspace

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// Workspace telemetry: every applied (journaled) event is counted by type,
// and the two interactive verbs get latency histograms measured around the
// whole call — lock wait, shared-hierarchy work and journal append included,
// since that is what an annotator actually waits on.
var (
	wsEventsTotal = obs.Default().CounterVec("darwin_workspace_events_total",
		"State-changing workspace events applied (and journaled), by event type.", "type")
	wsSuggestDurations = obs.Default().Histogram("darwin_workspace_suggest_duration_seconds",
		"Latency of one shared-workspace suggest (includes hierarchy regeneration when the positive set changed).",
		obs.LatencyBuckets)
	wsAnswerDurations = obs.Default().Histogram("darwin_workspace_answer_duration_seconds",
		"Latency of one shared-workspace answer (includes classifier retrain on accept).",
		obs.LatencyBuckets)
	wsAttachmentsExpired = obs.Default().Counter("darwin_workspace_attachments_expired_total",
		"Annotator attachments detached by the per-attachment idle TTL.")
)

// Sentinel errors, exposed so the HTTP layer can map them to status codes.
var (
	ErrUnknownWorkspace   = errors.New("unknown or expired workspace")
	ErrUnknownAnnotator   = errors.New("unknown annotator")
	ErrDuplicateAnnotator = errors.New("annotator already attached")
	ErrNoPending          = errors.New("no pending suggestion (call suggest first)")
	ErrKeyMismatch        = errors.New("answer does not match the pending suggestion")
	// ErrJournal marks a failed journal append: the workspace refuses new
	// state changes rather than keep acknowledging work that would not
	// survive a restart.
	ErrJournal = errors.New("journal write failed")
)

// Options configures one workspace. The manager resolves Budget and Seed
// against the engine defaults before journaling the create event, so New
// requires both to be set (replay must not depend on mutable server
// defaults).
type Options struct {
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	Budget          int      `json:"budget"`
	Seed            int64    `json:"seed"`
}

// Suggestion is one candidate rule assigned to an annotator. Question and
// BudgetLeft are fixed at assignment time under the workspace lock,
// counting the other annotators' outstanding assignments, so concurrent
// annotators see distinct question numbers.
type Suggestion struct {
	Key         string
	Rule        string
	Coverage    int
	NewCoverage int
	Benefit     float64
	AvgBenefit  float64
	SampleIDs   []int
	// Question is this suggestion's provisional 1-based question number
	// (answered questions plus outstanding assignments including this one).
	Question int
	// BudgetLeft is the shared budget remaining after this assignment.
	BudgetLeft int
}

// Record is one rule verdict (or seed rule) in the shared history, tagged
// with the annotator who answered it (empty for seed rules).
type Record struct {
	core.RuleRecord
	Annotator string
}

// annotator is one attached annotator's private view: the suggestion
// assigned to them and not yet answered, plus per-annotator counters.
type annotator struct {
	name      string
	questions int
	accepts   int
	pending   *Suggestion
	// pendingCov is the full coverage set of the pending suggestion.
	pendingCov []int
	// lastSeen is the wall-clock time of the annotator's last interaction
	// (attach/suggest/answer). It drives the per-attachment idle TTL and is
	// deliberately not journaled or snapshotted: liveness is process-local,
	// and the *detach* it eventually triggers is the journaled event.
	lastSeen time.Time
}

// LogFunc journals one applied event. It is called inside the workspace's
// critical section — for suggest events, while the engine's index read lock
// is still held, so journal order matches the lock order concurrent index
// mutations were observed in. A returned error makes the workspace refuse
// further state changes (see ErrJournal).
type LogFunc func(typ string, data any) error

// Workspace is one shared multi-annotator discovery state. All methods are
// safe for concurrent use; a single mutex serializes state changes, which
// also defines the journal's replay order.
type Workspace struct {
	mu  sync.Mutex //darwin:lockrank workspace
	eng *core.Engine
	log LogFunc
	// logErr is the sticky first journal-append failure; once set, every
	// state-changing method fails with ErrJournal (the in-memory state is
	// ahead of the log by at most the event that failed, and replay after a
	// restart recovers everything acknowledged before it).
	logErr error

	id        string
	dataset   string
	seed      int64
	budget    int
	corpusLen int
	seedRules []string

	positives map[int]bool
	posBits   bitset.Set
	queried   map[string]bool
	scores    []float64
	clf       *classifier.SentenceClassifier
	retrains  int
	// lastRetrainSeq is the event sequence number the last retrain was seeded
	// with. Snapshots persist it so Restore can refit the classifier to the
	// exact model the live workspace had (same RNG stream), keeping
	// Trained() — and every report derived from the classifier — consistent
	// across recovery instead of flipping false until the next accept.
	lastRetrainSeq uint64
	// eventSeq counts applied events (create = 0); it seeds every derived
	// RNG so replayed and snapshot-restored workspaces draw the same
	// streams.
	eventSeq uint64

	accepted  []Record
	history   []Record
	questions int

	hier      *hierarchy.Hierarchy
	hierPos   int
	hierIxVer uint64
	hierGens  int

	annotators map[string]*annotator
	annOrder   []string

	// statsSnap is the cached status snapshot behind Stats: monitoring polls
	// read it lock-free, so a status poll never waits on ws.mu held across an
	// in-flight shared suggest (which can hold the mutex through a full
	// hierarchy regeneration under the engine's index lock).
	statsSnap atomic.Pointer[statsCounters]
}

// statsCounters is the cheap status snapshot published after every applied
// state change. Budget is immutable and lives on the workspace itself.
type statsCounters struct {
	questions int
	positives int
}

// publishStatsLocked refreshes the lock-free status snapshot. Callers hold
// ws.mu (or are in a constructor before the workspace is shared).
func (ws *Workspace) publishStatsLocked() {
	ws.statsSnap.Store(&statsCounters{questions: ws.questions, positives: len(ws.positives)})
}

// mix derives a deterministic per-event RNG seed from the workspace seed and
// an event sequence number (splitmix64-style finalizer).
func mix(seed int64, seq uint64) int64 {
	x := uint64(seed) ^ (seq+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x)
}

// New creates a workspace on the engine: it materializes the seed rules in
// the shared index (through the engine's write lock, firing any journaling
// hook), seeds the shared positive set and trains the initial classifier.
// log may be nil (volatile workspace).
//
//darwin:replaypure
func New(eng *core.Engine, id, dataset string, opts Options, log LogFunc) (*Workspace, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("workspace: budget must be resolved before creation")
	}
	if opts.Seed == 0 {
		return nil, fmt.Errorf("workspace: seed must be resolved before creation")
	}
	corp := eng.Corpus()
	ws := &Workspace{
		eng:        eng,
		log:        log,
		id:         id,
		dataset:    dataset,
		seed:       opts.Seed,
		budget:     opts.Budget,
		corpusLen:  corp.Len(),
		seedRules:  append([]string(nil), opts.SeedRules...),
		positives:  make(map[int]bool),
		posBits:    bitset.New(corp.Len()),
		queried:    make(map[string]bool),
		scores:     make([]float64, corp.Len()),
		clf:        eng.AttachClassifier(opts.Seed),
		annotators: make(map[string]*annotator),
	}
	for i := range ws.scores {
		ws.scores[i] = 0.5
	}
	// Validate every seed rule before mutating shared state.
	rules := make([]string, 0, len(opts.SeedRules))
	for _, spec := range opts.SeedRules {
		h, err := eng.ParseRule(spec)
		if err != nil {
			return nil, fmt.Errorf("workspace: seed rule %q: %w", spec, err)
		}
		rules = append(rules, h.String())
	}
	for i, spec := range opts.SeedRules {
		key, cov, err := eng.MaterializeRule(spec)
		if err != nil {
			return nil, fmt.Errorf("workspace: seed rule %q: %w", spec, err)
		}
		added := ws.addPositives(cov)
		ws.accepted = append(ws.accepted, Record{RuleRecord: core.RuleRecord{
			Key:            key,
			Rule:           rules[i],
			Coverage:       len(cov),
			Accepted:       true,
			CoverageIDs:    cov,
			AddedIDs:       added,
			PositivesAfter: len(ws.positives),
		}})
		ws.queried[key] = true
	}
	for _, id := range opts.SeedPositiveIDs {
		if corp.Sentence(id) != nil && !ws.positives[id] {
			ws.positives[id] = true
			ws.posBits.Add(id)
		}
	}
	if len(ws.positives) == 0 {
		return nil, fmt.Errorf("workspace: seeds produced no positive instances (need a seed rule with non-empty coverage or seed positive IDs)")
	}
	ws.retrain() // event 0: the create itself
	ws.eventSeq = 1
	ws.publishStatsLocked()
	return ws, nil
}

// ID returns the workspace ID.
func (ws *Workspace) ID() string { return ws.id }

// Dataset returns the dataset name the workspace was created on.
func (ws *Workspace) Dataset() string { return ws.dataset }

// Budget returns the shared oracle query budget.
func (ws *Workspace) Budget() int { return ws.budget }

// addPositives inserts coverage IDs into both representations of P and
// returns the newly added IDs (sorted). Callers hold ws.mu (or are in New).
//
//darwin:replaypure
func (ws *Workspace) addPositives(cov []int) []int {
	var added []int
	for _, id := range cov {
		if !ws.positives[id] {
			ws.positives[id] = true
			ws.posBits.Add(id)
			added = append(added, id)
		}
	}
	sort.Ints(added)
	return added
}

// growLocked extends the workspace's score vector and positive-set mirror
// after live-corpus growth: new sentences start at the untrained prior 0.5
// and outside P. Callers hold ws.mu (or are in New/Restore) and the engine
// read lock, under which the corpus length is stable.
//
//darwin:replaypure
func (ws *Workspace) growLocked() {
	n := ws.eng.Corpus().Len()
	if n <= ws.corpusLen {
		return
	}
	for len(ws.scores) < n {
		ws.scores = append(ws.scores, 0.5)
	}
	ws.posBits = ws.posBits.Grow(n)
	ws.corpusLen = n
}

// retrain refits the shared classifier on P and refreshes the scores,
// honouring the engine's lazy re-scoring settings. The negative-sampling RNG
// is reseeded from the current event sequence number, making the retrain a
// pure function of (P, seed, eventSeq, corpus length). It runs under the
// engine's read lock: training and scoring read the shared corpus and
// feature cache, which a concurrent ingest grows under the write lock.
//
//darwin:replaypure
func (ws *Workspace) retrain() {
	ws.eng.WithIndexRead(func(*index.Index) {
		ws.growLocked()
		ws.clf.Reseed(mix(ws.seed, ws.eventSeq))
		if err := ws.clf.TrainFromPositives(ws.positives); err != nil {
			// Training failure is tolerated live (previous model and scores
			// keep serving); lastRetrainSeq deliberately still points at the
			// last successful fit, so a snapshot Restore refits a seq that is
			// known to succeed.
			return
		}
		ws.lastRetrainSeq = ws.eventSeq
		ws.retrains++
		lazy, thr := ws.eng.LazyScoring()
		if !lazy || ws.retrains%3 == 1 || ws.retrains <= 1 {
			copy(ws.scores, ws.clf.ScoreAll())
			return
		}
		for id := 0; id < ws.corpusLen && id < len(ws.scores); id++ {
			if ws.scores[id] > thr || ws.positives[id] {
				ws.scores[id] = ws.clf.ScoreOne(id)
			}
		}
	})
}

// Attach registers a new annotator on the workspace.
//
//darwin:replaypure
func (ws *Workspace) Attach(name string) error {
	if name == "" {
		return fmt.Errorf("workspace: annotator name is required")
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return err
	}
	if _, dup := ws.annotators[name]; dup {
		return fmt.Errorf("workspace: annotator %q: %w", name, ErrDuplicateAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	ws.annotators[name] = &annotator{name: name, lastSeen: time.Now()}
	ws.annOrder = append(ws.annOrder, name)
	ws.applied("attach", attachData{Annotator: name})
	return ws.journalErrLocked()
}

// Detach removes an annotator; their unanswered pending suggestion (if any)
// is released back to the candidate pool so another annotator can draw it.
//
//darwin:replaypure
func (ws *Workspace) Detach(name string) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return err
	}
	if _, ok := ws.annotators[name]; !ok {
		return fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	ws.detachLocked(name)
	return ws.journalErrLocked()
}

// detachLocked removes a known annotator, releases their pending suggestion
// back to the pool and journals the detach. Callers hold ws.mu.
//
//darwin:replaypure
func (ws *Workspace) detachLocked(name string) {
	an := ws.annotators[name]
	if an.pending != nil {
		delete(ws.queried, an.pending.Key)
	}
	delete(ws.annotators, name)
	for i, n := range ws.annOrder {
		if n == name {
			ws.annOrder = append(ws.annOrder[:i], ws.annOrder[i+1:]...)
			break
		}
	}
	ws.applied("detach", detachData{Annotator: name})
}

// DetachIdle detaches every annotator whose last interaction predates
// cutoff, journaling each detach exactly like a client-issued one (replay
// and replication therefore reproduce the reclaim deterministically, with no
// clock dependence). It returns the detached names.
func (ws *Workspace) DetachIdle(cutoff time.Time) []string {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.journalErrLocked() != nil {
		return nil
	}
	var idle []string
	for _, name := range ws.annOrder {
		if ws.annotators[name].lastSeen.Before(cutoff) {
			idle = append(idle, name)
		}
	}
	for _, name := range idle {
		ws.detachLocked(name)
		wsAttachmentsExpired.Inc()
	}
	return idle
}

// HasAnnotator reports whether the named annotator is currently attached.
func (ws *Workspace) HasAnnotator(name string) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	_, ok := ws.annotators[name]
	return ok
}

// applied records one applied state change: it journals the event (while
// ws.mu — and, for suggest, the index read lock — is held, so journal order
// equals apply order) and advances the event sequence. Callers hold ws.mu.
//
// The ws.log field value is installed by the manager and appends to the
// durable journal; the field indirection is invisible to static call-graph
// analysis, so this bridge carries the //darwin:journals contract manually.
//
//darwin:journals
//darwin:replaypure
func (ws *Workspace) applied(typ string, data any) {
	ws.eventSeq++
	wsEventsTotal.With(typ).Inc()
	if ws.log != nil {
		if err := ws.log(typ, data); err != nil && ws.logErr == nil {
			ws.logErr = err
		}
	}
}

// journalErrLocked reports the sticky journal failure, if any. Callers hold
// ws.mu; state-changing methods check it both on entry (refuse new work on
// a broken journal) and after applied (surface the failure that just
// happened instead of silently acknowledging undurable work).
func (ws *Workspace) journalErrLocked() error {
	if ws.logErr == nil {
		return nil
	}
	return fmt.Errorf("workspace %s: %w (restart the server to recover the journaled state): %v", ws.id, ErrJournal, ws.logErr)
}

// outstandingLocked counts suggestions assigned and not yet answered.
func (ws *Workspace) outstandingLocked() int {
	n := 0
	for _, an := range ws.annotators {
		if an.pending != nil {
			n++
		}
	}
	return n
}

// Suggest returns the annotator's pending suggestion, or assigns them the
// most promising unqueried, unassigned candidate rule. ok=false means no
// assignment is possible: the shared budget is exhausted (counting
// outstanding assignments, so the budget is never oversubscribed) or no
// candidates remain. The heavy work — regenerating the shared hierarchy
// when |P| or the index changed, and one benefit-kernel pass over the
// candidates — runs under the engine's read lock.
//
//darwin:replaypure
func (ws *Workspace) Suggest(name string) (Suggestion, bool, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters workspace state
	defer wsSuggestDurations.ObserveSince(time.Now())
	ws.mu.Lock()
	defer ws.mu.Unlock()
	an, ok := ws.annotators[name]
	if !ok {
		return Suggestion{}, false, fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	an.lastSeen = time.Now()
	if an.pending != nil {
		return *an.pending, true, nil
	}
	if err := ws.journalErrLocked(); err != nil {
		return Suggestion{}, false, err
	}
	if ws.questions+ws.outstandingLocked() >= ws.budget {
		return Suggestion{}, false, nil
	}
	var sug Suggestion
	var cov []int
	found := false
	ws.eng.WithIndexRead(func(ix *index.Index) {
		ws.growLocked()
		if ver := ix.Version(); ws.hier == nil || ws.hierPos != len(ws.positives) || ws.hierIxVer != ver {
			ws.hier = hierarchy.GenerateBits(ix, ws.posBits, ws.eng.HierarchyConfig())
			ws.hierPos = len(ws.positives)
			ws.hierIxVer = ver
			ws.hierGens++
		}
		key, benefit, newCov := ws.pickLocked()
		if key == "" {
			return
		}
		n := ws.hier.Node(key)
		cov = bitset.IDs(n.Bits)
		avg := 0.0
		if newCov > 0 {
			avg = benefit / float64(newCov)
		}
		rng := rand.New(rand.NewSource(mix(ws.seed, ws.eventSeq)))
		question := ws.questions + ws.outstandingLocked() + 1
		sug = Suggestion{
			Key:         key,
			Rule:        n.Heuristic.String(),
			Coverage:    len(cov),
			NewCoverage: newCov,
			Benefit:     benefit,
			AvgBenefit:  avg,
			SampleIDs:   oracle.SampleCoverage(cov, ws.eng.OracleSampleSize(), rng),
			Question:    question,
			BudgetLeft:  ws.budget - question,
		}
		ws.queried[key] = true
		an.pending = &sug
		an.pendingCov = cov
		found = true
		// Journal inside the read lock: a concurrent seed-rule
		// materialization (write lock) is journaled strictly before or
		// after this suggestion, matching what the hierarchy saw.
		ws.applied("suggest", suggestData{Annotator: name, Key: key})
	})
	if !found {
		return Suggestion{}, false, nil
	}
	return sug, true, ws.journalErrLocked()
}

// pickLocked is the deterministic candidate selection: the unqueried,
// unassigned hierarchy node with the highest benefit, breaking ties by
// higher new coverage then lexicographic key. Assigned-but-unanswered keys
// are in ws.queried, which is what keeps concurrent annotators disjoint.
//
//darwin:replaypure
func (ws *Workspace) pickLocked() (string, float64, int) {
	bestKey := ""
	bestBenefit := -1.0
	bestNew := -1
	for _, key := range ws.hier.NonRootKeys() {
		if ws.queried[key] {
			continue
		}
		benefit, newCov := ws.hier.Node(key).Bits.AndNotSum(ws.posBits, ws.scores)
		if newCov == 0 {
			continue
		}
		if benefit > bestBenefit || (benefit == bestBenefit && newCov > bestNew) ||
			(benefit == bestBenefit && newCov == bestNew && (bestKey == "" || key < bestKey)) {
			bestKey, bestBenefit, bestNew = key, benefit, newCov
		}
	}
	return bestKey, bestBenefit, bestNew
}

// Answer records an annotator's verdict on their pending suggestion: on
// accept it merges the rule's coverage into the shared positive set and
// retrains the shared classifier; either way the rule stays queried for the
// whole workspace.
//
//darwin:replaypure
func (ws *Workspace) Answer(name, key string, accept bool) (Record, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters workspace state
	defer wsAnswerDurations.ObserveSince(time.Now())
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return Record{}, err
	}
	an, ok := ws.annotators[name]
	if !ok {
		return Record{}, fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	an.lastSeen = time.Now()
	if an.pending == nil {
		return Record{}, fmt.Errorf("workspace: annotator %q: %w", name, ErrNoPending)
	}
	if an.pending.Key != key {
		return Record{}, fmt.Errorf("workspace: answer for %q vs pending %q: %w", key, an.pending.Key, ErrKeyMismatch)
	}
	pending, cov := an.pending, an.pendingCov
	an.pending, an.pendingCov = nil, nil

	q := ws.questions + 1
	rec := Record{
		RuleRecord: core.RuleRecord{
			Question: q,
			Key:      key,
			Rule:     pending.Rule,
			Coverage: len(cov),
			Accepted: accept,
		},
		Annotator: name,
	}
	if accept {
		rec.CoverageIDs = cov
		rec.AddedIDs = ws.addPositives(cov)
		ws.accepted = append(ws.accepted, rec)
		ws.retrain()
	}
	rec.PositivesAfter = len(ws.positives)
	ws.history = append(ws.history, rec)
	ws.questions = q
	an.questions++
	if accept {
		an.accepts++
	}
	ws.applied("answer", answerData{Annotator: name, Key: key, Accept: accept})
	ws.publishStatsLocked()
	return rec, ws.journalErrLocked()
}

// HierarchyGenerations returns how many times the shared hierarchy was
// regenerated — with the shared cache this is once per positive-set change
// (plus index growth), regardless of how many annotators are stepping.
func (ws *Workspace) HierarchyGenerations() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.hierGens
}

// Stats returns the workspace's cheap status counters (questions answered,
// |P|, done) without copying the full report — the serving layer's list and
// status endpoints poll this per labeler. It reads the cached snapshot of
// the last applied state change, never ws.mu: a monitoring poll must not
// stall behind an in-flight shared suggest holding the workspace lock.
func (ws *Workspace) Stats() (questions, positives int, done bool) {
	snap := ws.statsSnap.Load()
	return snap.questions, snap.positives, snap.questions >= ws.budget
}

// Annotators returns the attached annotator names in attach order — what the
// serving layer re-adopts as labelers after journal recovery.
func (ws *Workspace) Annotators() []string {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return append([]string(nil), ws.annOrder...)
}

// PositivesMap returns a copy of the shared positive set.
func (ws *Workspace) PositivesMap() map[int]bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make(map[int]bool, len(ws.positives))
	for id := range ws.positives {
		out[id] = true
	}
	return out
}

// AnnotatorReport summarizes one attached annotator.
type AnnotatorReport struct {
	Name      string
	Questions int
	Accepts   int
	// PendingKey is the key of the suggestion assigned and not yet
	// answered ("" if none).
	PendingKey string
}

// ClassifierMetrics summarizes the shared classifier's state, derived
// deterministically from the score vector.
type ClassifierMetrics struct {
	// Trained reports whether the classifier currently holds a fitted model.
	// It survives snapshot recovery: Restore refits the model from the
	// persisted (positives, seed, last retrain sequence) triple.
	Trained            bool
	Retrains           int
	MeanScore          float64
	PredictedPositives int // sentences with p_s >= 0.5
}

// Report is a deterministic snapshot of the shared discovery state: equal
// event sequences yield equal reports (no wall-clock fields, and no
// process-local counters like HierarchyGenerations — a regeneration can
// happen on a suggest that assigns nothing, which journals no event), which
// is what the crash-recovery tests compare.
type Report struct {
	ID            string
	Dataset       string
	Budget        int
	Questions     int
	Done          bool
	PositiveCount int
	Positives     []int
	Accepted      []Record
	History       []Record
	Annotators    []AnnotatorReport
	Classifier    ClassifierMetrics
	EventSeq      uint64
}

// Report snapshots the workspace. The record slices are copied, so the
// snapshot stays stable while the workspace keeps running.
func (ws *Workspace) Report() *Report {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	rep := &Report{
		ID:            ws.id,
		Dataset:       ws.dataset,
		Budget:        ws.budget,
		Questions:     ws.questions,
		Done:          ws.questions >= ws.budget,
		PositiveCount: len(ws.positives),
		Positives:     ws.positiveIDsLocked(),
		Accepted:      append([]Record(nil), ws.accepted...),
		History:       append([]Record(nil), ws.history...),
		Classifier:    ws.metricsLocked(),
		EventSeq:      ws.eventSeq,
	}
	for _, name := range ws.annOrder {
		an := ws.annotators[name]
		ar := AnnotatorReport{Name: an.name, Questions: an.questions, Accepts: an.accepts}
		if an.pending != nil {
			ar.PendingKey = an.pending.Key
		}
		rep.Annotators = append(rep.Annotators, ar)
	}
	return rep
}

func (ws *Workspace) positiveIDsLocked() []int {
	out := make([]int, 0, len(ws.positives))
	for id := range ws.positives {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func (ws *Workspace) metricsLocked() ClassifierMetrics {
	m := ClassifierMetrics{Trained: ws.clf.Trained(), Retrains: ws.retrains}
	sum := 0.0
	for _, s := range ws.scores {
		sum += s
		if s >= 0.5 {
			m.PredictedPositives++
		}
	}
	if len(ws.scores) > 0 {
		m.MeanScore = sum / float64(len(ws.scores))
	}
	return m
}
