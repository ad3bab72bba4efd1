// Package darwin is the public SDK for the DARWIN interactive labeler
// (Galhotra, Gurajada & Tan, SIGMOD'21). It defines the one canonical API —
// the Labeler interface — behind which every deployment mode of the system
// hides. Every labeler is one annotator stepping one workspace (the
// system's single implementation of the discovery loop): a solo in-process
// labeler owns a fresh one-annotator workspace, an attachment joins a shared
// multi-annotator workspace, and a remote labeler drives either over the
// versioned /v2 HTTP surface. The implementations are interchangeable;
// callers program against Labeler and pick the transport at construction
// time:
//
//	lab, _ := darwin.NewSession(engine, "directions", darwin.Options{
//		SeedRules: []string{"best way to get to"},
//	})
//	// or: lab, _ := darwin.AttachWorkspace(manager, wsID, "alice")
//	// or: lab, _ := darwin.NewClient(url, token).NewLabeler(ctx, darwin.CreateOptions{...})
//	for {
//		sug, err := lab.Suggest(ctx)
//		if errors.Is(err, darwin.ErrBudgetExhausted) {
//			break
//		}
//		// show sug.Rule and sug.Samples to the annotator ...
//		_ = lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: verdict})
//	}
//	rep, _ := lab.Report(ctx)
//	_ = lab.Export(ctx, file)
//
// Errors are typed (ErrNotFound, ErrConflict, ErrBudgetExhausted, ...); the
// HTTP transport maps them to and from the uniform /v2 error envelope
// {code, message, retryable}, so errors.Is works identically against local
// and remote labelers.
package darwin

import (
	"context"
	"io"
)

// A Labeler is one interactive rule-discovery loop: Suggest proposes the
// most promising unverified candidate rule, Answer records the annotator's
// verdict, Report snapshots the run, and Export writes the labeled corpus.
// Implementations are safe for concurrent use; calls on one labeler are
// serialized.
type Labeler interface {
	// Suggest returns the pending candidate rule to verify, assigning a new
	// one if none is pending. It fails with ErrBudgetExhausted when the
	// labeler is done (budget spent or no candidates remain).
	Suggest(ctx context.Context) (Suggestion, error)
	// Answer records a verdict on the pending suggestion. A non-empty Key
	// must match the pending suggestion's key (ErrConflict otherwise); an
	// empty Key answers whatever is pending, requesting a suggestion first
	// if none is. Implementations journal the applied verdict durably
	// before returning (the answer survives a crash once Answer returns).
	//
	//darwin:journals
	Answer(ctx context.Context, ans Answer) error
	// Report snapshots the discovery state so far.
	Report(ctx context.Context) (Report, error)
	// Export writes the labeled corpus as JSONL, one {"id","text","label"}
	// object per sentence.
	Export(ctx context.Context, w io.Writer) error
	// Close releases the labeler. For a workspace attachment it detaches the
	// annotator (releasing any pending suggestion back to the pool); for a
	// remote labeler it deletes the server-side resource.
	Close(ctx context.Context) error
}

// BatchAnswerer is implemented by every Labeler in this package: it applies
// several verdicts in one call (one critical section for local labelers, one
// round trip for remote ones), returning the record of each applied answer.
// On error the returned records cover the prefix that was applied.
type BatchAnswerer interface {
	// AnswerBatch journals the applied records before returning, like
	// Labeler.Answer.
	//
	//darwin:journals
	AnswerBatch(ctx context.Context, answers []Answer) ([]RuleRecord, error)
}

// Statuser is implemented by every Labeler in this package: a cheap status
// poll that does not copy the full report.
type Statuser interface {
	Status(ctx context.Context) (Status, error)
}

// BatchStatusAnswerer is implemented by every Labeler in this package: it
// applies a batch of verdicts and returns the post-batch status in the same
// call. For local labelers that means one critical section; for remote ones
// a single round trip. The serving layer prefers it over BatchAnswerer +
// Statuser because the combined form removes the window in which the
// labeler's process can die between a durably-applied batch and the status
// poll that reports it. On error the records cover the applied prefix and
// the status reflects the labeler after that prefix (zero when nothing can
// be read).
type BatchStatusAnswerer interface {
	// AnswerBatchStatus journals the applied records before returning, like
	// Labeler.Answer.
	//
	//darwin:journals
	AnswerBatchStatus(ctx context.Context, answers []Answer) ([]RuleRecord, Status, error)
}

// AnswerBatch applies several verdicts through l, using the single-call
// batch path when l implements BatchAnswerer (all labelers in this package
// do) and falling back to one Answer per verdict otherwise (in which case
// the returned records are nil).
func AnswerBatch(ctx context.Context, l Labeler, answers []Answer) ([]RuleRecord, error) {
	if b, ok := l.(BatchAnswerer); ok {
		return b.AnswerBatch(ctx, answers)
	}
	for _, ans := range answers {
		if err := l.Answer(ctx, ans); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Modes a labeler can run in.
const (
	// ModeSession creates a solo labeler: a fresh workspace with one
	// annotator. Solo labelers report ModeWorkspace once created.
	ModeSession = "session"
	// ModeWorkspace is an annotator's attachment to a workspace, fresh or
	// shared.
	ModeWorkspace = "workspace"
)

// Sample is one example sentence shown alongside a suggestion (Figure 2 of
// the paper).
type Sample struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

// Suggestion is one candidate rule proposed for verification.
type Suggestion struct {
	// Key identifies the rule; pass it back in Answer.
	Key string `json:"key"`
	// Rule is the human-readable rule specification.
	Rule string `json:"rule"`
	// Coverage is the number of sentences the rule matches; NewCoverage how
	// many of those are not yet in the positive set.
	Coverage    int `json:"coverage"`
	NewCoverage int `json:"new_coverage"`
	// Benefit is the expected number of true positives the rule would add
	// (Σ p_s over the new coverage); AvgBenefit is Benefit/NewCoverage.
	Benefit    float64 `json:"benefit"`
	AvgBenefit float64 `json:"avg_benefit"`
	// Question is this suggestion's 1-based question number; BudgetLeft the
	// remaining oracle budget.
	Question   int `json:"question"`
	BudgetLeft int `json:"budget_left"`
	// Samples are example sentences from the rule's coverage.
	Samples []Sample `json:"samples,omitempty"`
}

// Answer is one verdict on a pending suggestion.
type Answer struct {
	// Key of the suggestion being answered. Empty answers the pending
	// suggestion (requesting one if none is pending), which lets scripted
	// clients batch blind verdicts.
	Key string `json:"key,omitempty"`
	// Accept is the verdict: is the rule adequately precise?
	Accept bool `json:"accept"`
}

// RuleRecord describes one oracle interaction (or seed rule).
type RuleRecord struct {
	// Question is the 1-based question number (0 for seed rules).
	Question int    `json:"question"`
	Key      string `json:"key"`
	Rule     string `json:"rule"`
	// Coverage is |C_r|.
	Coverage int  `json:"coverage"`
	Accepted bool `json:"accepted"`
	// CoverageIDs is the full coverage set of accepted rules (nil for
	// rejected rules); AddedIDs the sentences it newly added to P.
	CoverageIDs []int `json:"coverage_ids,omitempty"`
	AddedIDs    []int `json:"added_ids,omitempty"`
	// PositivesAfter is |P| after this record.
	PositivesAfter int `json:"positives_after"`
	// Annotator is who answered (empty for seed rules).
	Annotator string `json:"annotator,omitempty"`
}

// ClassifierInfo summarizes the trained sentence classifier.
type ClassifierInfo struct {
	Trained            bool    `json:"trained"`
	Retrains           int     `json:"retrains"`
	MeanScore          float64 `json:"mean_score"`
	PredictedPositives int     `json:"predicted_positives"`
}

// Report is a deterministic snapshot of a discovery run: it carries no
// wall-clock or process-local fields, so equal event sequences yield
// byte-identical serialized reports regardless of which labeler (local
// adapter, RemoteLabeler, router) drove them.
type Report struct {
	Dataset   string `json:"dataset"`
	Mode      string `json:"mode"`
	Budget    int    `json:"budget"`
	Questions int    `json:"questions"`
	Done      bool   `json:"done"`
	// Positives is |P|; PositiveIDs the sorted discovered positive set.
	Positives   int   `json:"positives"`
	PositiveIDs []int `json:"positive_ids"`
	// Accepted lists accepted rules (seeds included) in acceptance order;
	// History every oracle query in order (seeds excluded).
	Accepted []RuleRecord `json:"accepted"`
	History  []RuleRecord `json:"history"`
	// Classifier summarizes the workspace's classifier, part of the durable
	// workspace state.
	Classifier *ClassifierInfo `json:"classifier,omitempty"`
}

// Status is a cheap labeler status poll.
type Status struct {
	// ID is the server-side labeler ID (empty for local labelers).
	ID      string `json:"id,omitempty"`
	Dataset string `json:"dataset"`
	Mode    string `json:"mode"`
	// Workspace and Annotator identify a workspace attachment.
	Workspace string `json:"workspace,omitempty"`
	Annotator string `json:"annotator,omitempty"`
	Budget    int    `json:"budget"`
	Questions int    `json:"questions"`
	Positives int    `json:"positives"`
	Done      bool   `json:"done"`
}
