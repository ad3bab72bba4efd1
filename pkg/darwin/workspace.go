package darwin

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/workspace"
)

// Options configures a new solo labeler.
type Options struct {
	// SeedRules seed the positive set without consuming budget.
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive.
	SeedPositiveIDs []int
	// Budget overrides the engine's oracle query budget (0 keeps it).
	Budget int
	// Seed overrides the engine's random seed for this labeler (0 keeps it),
	// making the run replayable independently of other labelers.
	Seed int64
}

// SoloAnnotator is the annotator name of a solo labeler when none is given.
const SoloAnnotator = "solo"

// NewSession starts a solo labeler on the engine: a fresh in-process
// workspace with one annotator (SoloAnnotator), stepping the same loop as
// every shared workspace. The workspace has no journal and never expires;
// it lives as long as the returned labeler is referenced. The dataset name
// is carried into reports and statuses.
func NewSession(eng *core.Engine, dataset string, opts Options) (*WorkspaceLabeler, error) {
	mgr := workspace.NewManager(map[string]*core.Engine{dataset: eng}, nil,
		workspace.ManagerConfig{TTL: time.Duration(math.MaxInt64)})
	ws, err := mgr.Create(dataset, workspace.Options{
		SeedRules:       opts.SeedRules,
		SeedPositiveIDs: opts.SeedPositiveIDs,
		Budget:          opts.Budget,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, wrap(ErrInvalid, err)
	}
	return AttachWorkspace(mgr, ws.ID(), SoloAnnotator)
}

// WorkspaceLabeler adapts one annotator's attachment to a workspace — a
// solo labeler's own or a shared multi-annotator one — to the Labeler
// interface. All state-changing
// calls go through the workspace manager, inheriting its journaling gate and
// TTL refresh; serialization across annotators is the workspace's own lock,
// so a batch of answers may interleave with other annotators exactly as the
// equivalent sequence of single calls would.
type WorkspaceLabeler struct {
	mgr       *workspace.Manager
	eng       *core.Engine
	wsID      string
	annotator string

	mu     sync.Mutex
	closed bool
}

// AttachWorkspace attaches a new annotator to the workspace and returns the
// attachment as a Labeler; Close detaches it again.
func AttachWorkspace(mgr *workspace.Manager, wsID, annotator string) (*WorkspaceLabeler, error) {
	l, err := AdoptWorkspace(mgr, wsID, annotator)
	if err != nil {
		return nil, err
	}
	if err := mgr.Attach(wsID, annotator); err != nil {
		return nil, mapWorkspaceErr(err)
	}
	return l, nil
}

// AdoptWorkspace wraps an annotator's already-existing attachment as a
// Labeler that owns it: like AttachWorkspace, Close detaches the annotator —
// but the attachment itself is not created here. The serving layer uses it
// to re-adopt journaled attachments after a restart, so a recovered
// workspace's labelers keep their delete-detaches semantics.
func AdoptWorkspace(mgr *workspace.Manager, wsID, annotator string) (*WorkspaceLabeler, error) {
	if annotator == "" {
		return nil, fmt.Errorf("%w: annotator name is required", ErrInvalid)
	}
	ws, ok := mgr.Get(wsID)
	if !ok {
		return nil, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, wsID)
	}
	eng, ok := mgr.Engine(ws.Dataset())
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q is not served", ErrNotFound, ws.Dataset())
	}
	return &WorkspaceLabeler{mgr: mgr, eng: eng, wsID: wsID, annotator: annotator}, nil
}

// Workspace returns the workspace ID this labeler is attached to.
func (l *WorkspaceLabeler) Workspace() string { return l.wsID }

// Annotator returns the annotator name this labeler answers as.
func (l *WorkspaceLabeler) Annotator() string { return l.annotator }

func (l *WorkspaceLabeler) live() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	return nil
}

// Suggest implements Labeler: it returns the annotator's pending suggestion
// or assigns the most promising candidate no other annotator holds.
func (l *WorkspaceLabeler) Suggest(ctx context.Context) (Suggestion, error) {
	if err := l.live(); err != nil {
		return Suggestion{}, err
	}
	sug, ok, err := l.mgr.Suggest(l.wsID, l.annotator)
	if err != nil {
		return Suggestion{}, mapWorkspaceErr(err)
	}
	if !ok {
		return Suggestion{}, fmt.Errorf("%w: shared budget spent or no candidates remain", ErrBudgetExhausted)
	}
	out := Suggestion{
		Key:         sug.Key,
		Rule:        sug.Rule,
		Coverage:    sug.Coverage,
		NewCoverage: sug.NewCoverage,
		Benefit:     sug.Benefit,
		AvgBenefit:  sug.AvgBenefit,
		Question:    sug.Question,
		BudgetLeft:  sug.BudgetLeft,
		Samples:     samplesFrom(l.eng.Corpus(), sug.SampleIDs),
	}
	return out, nil
}

// Answer implements Labeler.
func (l *WorkspaceLabeler) Answer(ctx context.Context, ans Answer) error {
	_, err := l.AnswerBatch(ctx, []Answer{ans})
	return err
}

// AnswerBatch implements BatchAnswerer. Every applied answer is journaled
// individually through the workspace's write-ahead log (the same events the
// single-call path appends), so recovery replays the batch exactly.
func (l *WorkspaceLabeler) AnswerBatch(ctx context.Context, answers []Answer) ([]RuleRecord, error) {
	if err := l.live(); err != nil {
		return nil, err
	}
	var recs []RuleRecord
	for i, ans := range answers {
		key := ans.Key
		if key == "" || i > 0 {
			// Resolve (or assign) the pending suggestion; Suggest is
			// idempotent while one is pending, so a keyed first answer after
			// a client-side suggest sees the same key again.
			sug, ok, err := l.mgr.Suggest(l.wsID, l.annotator)
			if err != nil {
				return recs, batchErr(i, len(answers), mapWorkspaceErr(err))
			}
			if !ok {
				return recs, batchErr(i, len(answers),
					fmt.Errorf("%w: shared budget spent or no candidates remain", ErrBudgetExhausted))
			}
			if key == "" {
				key = sug.Key
			}
		}
		rec, err := l.mgr.Answer(l.wsID, l.annotator, key, ans.Accept)
		if err != nil {
			return recs, batchErr(i, len(answers), mapWorkspaceErr(err))
		}
		recs = append(recs, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	return recs, nil
}

// AnswerBatchStatus implements BatchStatusAnswerer: the batch followed by a
// status read of the shared workspace. Workspaces serialize per event (other
// annotators may interleave), so the status is simply the workspace after
// this caller's applied prefix plus any concurrent progress — the same
// guarantee two separate calls gave, without the second round trip.
func (l *WorkspaceLabeler) AnswerBatchStatus(ctx context.Context, answers []Answer) ([]RuleRecord, Status, error) {
	recs, batchErr := l.AnswerBatch(ctx, answers)
	if batchErr != nil && len(recs) == 0 {
		return nil, Status{}, batchErr
	}
	st, stErr := l.Status(ctx)
	if batchErr != nil {
		return recs, st, batchErr
	}
	return recs, st, stErr
}

// Report implements Labeler: the report of the shared workspace.
func (l *WorkspaceLabeler) Report(ctx context.Context) (Report, error) {
	if err := l.live(); err != nil {
		return Report{}, err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return Report{}, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	rep := ws.Report()
	out := Report{
		Dataset:     rep.Dataset,
		Mode:        ModeWorkspace,
		Budget:      rep.Budget,
		Questions:   rep.Questions,
		Done:        rep.Done,
		Positives:   rep.PositiveCount,
		PositiveIDs: rep.Positives,
		Accepted:    make([]RuleRecord, 0, len(rep.Accepted)),
		History:     make([]RuleRecord, 0, len(rep.History)),
		Classifier: &ClassifierInfo{
			Trained:            rep.Classifier.Trained,
			Retrains:           rep.Classifier.Retrains,
			MeanScore:          rep.Classifier.MeanScore,
			PredictedPositives: rep.Classifier.PredictedPositives,
		},
	}
	for _, rec := range rep.Accepted {
		out.Accepted = append(out.Accepted, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	for _, rec := range rep.History {
		out.History = append(out.History, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	return out, nil
}

// Export implements Labeler: the labeled corpus of the shared positive set.
func (l *WorkspaceLabeler) Export(ctx context.Context, w io.Writer) error {
	if err := l.live(); err != nil {
		return err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	return l.eng.Corpus().WriteLabeledJSONL(w, ws.PositivesMap())
}

// Close implements Labeler: it detaches the annotator (releasing any
// pending suggestion back to the pool). The workspace itself lives on. The
// labeler is marked closed only once the detach succeeded (or the attachment
// is already gone), so a failed detach — e.g. a broken journal — can be
// retried.
func (l *WorkspaceLabeler) Close(ctx context.Context) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	err := l.mgr.Detach(l.wsID, l.annotator)
	if err != nil &&
		!errors.Is(err, workspace.ErrUnknownWorkspace) &&
		!errors.Is(err, workspace.ErrUnknownAnnotator) {
		return mapWorkspaceErr(err)
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return nil
}

// Status implements Statuser.
func (l *WorkspaceLabeler) Status(ctx context.Context) (Status, error) {
	if err := l.live(); err != nil {
		return Status{}, err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return Status{}, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	questions, positives, done := ws.Stats()
	return Status{
		Dataset:   ws.Dataset(),
		Mode:      ModeWorkspace,
		Workspace: l.wsID,
		Annotator: l.annotator,
		Budget:    ws.Budget(),
		Questions: questions,
		Positives: positives,
		Done:      done,
	}, nil
}

// mapWorkspaceErr attaches the matching API sentinel to a workspace-layer
// error, preserving its message and chain.
func mapWorkspaceErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errorsIsAny(err, workspace.ErrUnknownWorkspace, workspace.ErrUnknownAnnotator):
		return wrap(ErrNotFound, err)
	case errorsIsAny(err, workspace.ErrDuplicateAnnotator, workspace.ErrNoPending, workspace.ErrKeyMismatch):
		return wrap(ErrConflict, err)
	case errorsIsAny(err, workspace.ErrJournal):
		return wrap(ErrUnavailable, err)
	default:
		return wrap(ErrInvalid, err)
	}
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// batchErr annotates a mid-batch failure with how far the batch got;
// single-answer calls pass the error through untouched.
func batchErr(i, n int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("answer %d/%d (%d applied): %w", i+1, n, i, err)
}

// samplesFrom resolves sample sentence IDs against the corpus, skipping IDs
// the corpus does not know.
func samplesFrom(corp *corpus.Corpus, ids []int) []Sample {
	var out []Sample
	for _, id := range ids {
		if sent := corp.Sentence(id); sent != nil {
			out = append(out, Sample{ID: id, Text: sent.Text})
		}
	}
	return out
}

// coreRecord converts a core.RuleRecord to the SDK shape. CoverageIDs are
// sorted so reports serialize deterministically.
func coreRecord(rec core.RuleRecord, annotator string) RuleRecord {
	out := RuleRecord{
		Question:       rec.Question,
		Key:            rec.Key,
		Rule:           rec.Rule,
		Coverage:       rec.Coverage,
		Accepted:       rec.Accepted,
		PositivesAfter: rec.PositivesAfter,
		Annotator:      annotator,
	}
	if len(rec.CoverageIDs) > 0 {
		out.CoverageIDs = append([]int(nil), rec.CoverageIDs...)
		sort.Ints(out.CoverageIDs)
	}
	if len(rec.AddedIDs) > 0 {
		out.AddedIDs = append([]int(nil), rec.AddedIDs...)
		sort.Ints(out.AddedIDs)
	}
	return out
}
