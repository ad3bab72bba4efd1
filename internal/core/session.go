package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

// Engine-level telemetry: the interactive loop's two verbs, measured at the
// core layer (below HTTP and labeler locking) so solo sessions and legacy Run
// callers are covered alike.
var (
	nextDurations = obs.Default().Histogram("darwin_session_next_duration_seconds",
		"Latency of one Session.Next that did real work (hierarchy reuse or regen + traversal).",
		obs.LatencyBuckets)
	answerDurations = obs.Default().Histogram("darwin_session_answer_duration_seconds",
		"Latency of one Session.Answer (on accept: positive-set merge + classifier retrain + rescore).",
		obs.LatencyBuckets)
)

// SessionOptions configures one interactive discovery session.
type SessionOptions struct {
	// SeedRules are textual rule specifications whose coverage seeds P
	// without consuming budget (Algorithm 1 line 3).
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive; they seed P
	// directly.
	SeedPositiveIDs []int
	// Budget overrides the engine config's oracle query budget for this
	// session (0 keeps the engine default).
	Budget int
	// Seed overrides the engine config's random seed for this session's
	// sampling and classifier training (0 keeps the engine default), so a
	// session can be replayed deterministically regardless of what other
	// sessions ran before it on the same engine. An explicit
	// Config.Classifier.Seed still wins for classifier training, matching
	// Engine.New.
	Seed int64
	// Traversal, when non-nil, is the traversal strategy this session uses
	// instead of building one from the engine config. The session takes
	// ownership: the instance must not be shared with other sessions.
	Traversal traversal.Traversal
}

// Session is one stepwise run of Algorithm 1 in which the oracle role is
// played by the caller: Next proposes the most promising unqueried rule,
// Answer records the caller's accept/reject verdict and updates the positive
// set and classifier, and Report snapshots the run so far. A Session owns all
// mutable discovery state (positive set, classifier, scores, traversal,
// RNG); it only reads the engine's shared corpus and index, so any number of
// sessions may run concurrently on one engine. A single Session is NOT
// goroutine-safe; callers that share a session across goroutines (e.g. an
// HTTP server) must serialize access themselves.
type Session struct {
	e *Engine

	rng          *rand.Rand
	clf          *classifier.SentenceClassifier
	scores       []float64
	retrainCount *int

	trav traversal.Traversal
	// travOverride, when non-nil, is used instead of building a traversal
	// from the engine config (session option, or Config.CustomTraversal for
	// the legacy Run path).
	travOverride traversal.Traversal
	queried      map[string]bool
	seedKeys     []string
	seeded       bool

	positives map[int]bool
	// posBits mirrors positives as a dense bitset sized to the corpus; it is
	// the set the scoring kernels run against.
	posBits bitset.Set
	report  *Report
	budget  int
	start   time.Time

	// hier is the cached candidate hierarchy. It depends only on the shared
	// index and the positive set, so it stays valid across rejected answers
	// and repeated Next calls; hierPos and hierIxVer record |P| and the
	// index version it was generated against, and hierGens counts
	// regenerations (exposed for tests and benchmarks).
	hier      *hierarchy.Hierarchy
	hierPos   int
	hierIxVer uint64
	hierGens  int

	// Step-latency tracking for the serving layer: duration of each Next
	// that did real work (not a pending replay).
	lastStep  time.Duration
	stepTotal time.Duration
	stepCount int

	pending *pendingSuggestion
	done    bool
}

// pendingSuggestion is the suggestion issued by Next and not yet answered,
// together with the resolution context Answer needs (the full coverage set,
// the heuristic for oracle queries, and the traversal state for Feedback).
type pendingSuggestion struct {
	sug  Suggestion
	heur grammar.Heuristic
	cov  []int
	st   *traversal.State
}

// NewSession starts an interactive discovery session on the engine: it seeds
// the positive set from the options, trains the session's own classifier, and
// prepares the traversal strategy. Seed rules are materialized in the shared
// index under the engine's write lock, so NewSession is safe to call
// concurrently with other sessions' steps. Note that materializing a seed
// rule the index does not contain yet grows the index monotonically: sessions
// stepping afterwards may see a candidate they would not have seen before, so
// bit-exact replay of a session is guaranteed only against the same set of
// materialized rules.
func (e *Engine) NewSession(opts SessionOptions) (*Session, error) {
	if opts.Traversal == nil && e.cfg.CustomTraversal != nil {
		// A stateful shared traversal instance would be stepped by every
		// session at once; sessions must own theirs.
		return nil, fmt.Errorf("core: Config.CustomTraversal cannot back concurrent sessions; pass a fresh SessionOptions.Traversal instead")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = e.cfg.Seed
	}
	clfCfg := e.cfg.Classifier
	if clfCfg.Seed == 0 {
		clfCfg.Seed = seed
	}
	count := 0
	clf := classifier.NewSentenceClassifier(e.corp, e.emb, clfCfg, e.cfg.ClassifierKind)
	s := &Session{
		e:            e,
		rng:          rand.New(rand.NewSource(seed)),
		clf:          clf,
		retrainCount: &count,
		travOverride: opts.Traversal,
	}
	// scores and posBits are sized by init under the index lock, so the
	// length read cannot race a concurrent ingest growing the corpus.
	return s, s.init(opts)
}

// newLegacySession builds the session that backs a batch Engine.Run: it
// aliases the engine's own classifier, score slice, RNG and retrain counter so
// that Engine.Scores and Engine.Classifier keep reflecting the run's state
// (several callers read them from OnQuery callbacks and after Run returns).
func (e *Engine) newLegacySession(opts SessionOptions) (*Session, error) {
	s := &Session{
		e:            e,
		rng:          e.rng,
		clf:          e.clf,
		scores:       e.scores,
		retrainCount: &e.retrainCount,
		travOverride: e.cfg.CustomTraversal,
	}
	return s, s.init(opts)
}

// init seeds the positive set, trains the initial classifier and prepares the
// traversal. It is the body shared by NewSession and newLegacySession.
func (s *Session) init(opts SessionOptions) error {
	e := s.e
	s.start = time.Now()
	s.budget = opts.Budget
	if s.budget <= 0 {
		s.budget = e.cfg.Budget
	}
	s.report = &Report{Positives: make(map[int]bool)}
	s.positives = s.report.Positives
	s.queried = make(map[string]bool)

	// Parse the seed rules before touching shared state so a bad spec leaves
	// the engine untouched.
	heuristics := make([]grammar.Heuristic, 0, len(opts.SeedRules))
	for _, spec := range opts.SeedRules {
		h, err := e.reg.Parse(spec)
		if err != nil {
			return fmt.Errorf("core: seed rule %q: %w", spec, err)
		}
		heuristics = append(heuristics, h)
	}

	// Size the session's score and positive-set mirrors, materialize ad-hoc
	// seed rules (a shared-index mutation) and resolve seed positives in one
	// write-locked section: the corpus length, the seed coverage and the
	// mirror sizes are read under the same lock, so a concurrent ingest
	// cannot grow the corpus between the sizing and the seeding. The index's
	// parent/child edges are left rebuilt so subsequent read-locked steps
	// never trigger a lazy rebuild.
	e.ixMu.Lock()
	// Attach the shared feature cache here rather than at construction: its
	// eligibility check reads the corpus length, which a concurrent ingest
	// grows under this lock.
	s.clf.ShareFeatureCache(e.featCache)
	if s.scores == nil {
		s.scores = make([]float64, e.corp.Len())
		for i := range s.scores {
			s.scores[i] = 0.5
		}
	}
	// The legacy path aliases the engine-owned slice, which Ingest keeps
	// sized to the corpus; for session-owned slices this is a no-op.
	for len(s.scores) < e.corp.Len() {
		s.scores = append(s.scores, 0.5)
	}
	s.posBits = bitset.New(e.corp.Len())
	for _, h := range heuristics {
		e.ix.EnsureHeuristic(h, e.corp)
		ids := e.ix.Coverage(h.Key())
		added := s.addPositives(ids)
		s.seedKeys = append(s.seedKeys, h.Key())
		s.report.Accepted = append(s.report.Accepted, RuleRecord{
			Question:       0,
			Key:            h.Key(),
			Rule:           h.String(),
			Coverage:       len(ids),
			Accepted:       true,
			CoverageIDs:    ids,
			AddedIDs:       added,
			PositivesAfter: len(s.positives),
		})
	}
	if len(heuristics) > 0 {
		e.ix.BuildEdges()
		if e.matHook != nil {
			e.matHook(opts.SeedRules)
		}
	}
	for _, id := range opts.SeedPositiveIDs {
		if sent := e.corp.Sentence(id); sent != nil {
			s.positives[id] = true
			s.posBits.Add(id)
		}
	}
	e.ixMu.Unlock()
	if len(s.positives) == 0 {
		return fmt.Errorf("core: seeds produced no positive instances (need a seed rule with non-empty coverage or seed positive IDs)")
	}

	// Initial classifier (Algorithm 1 line 4).
	s.retrain()

	s.trav = s.travOverride
	if s.trav == nil {
		s.trav = traversal.New(e.cfg.Traversal, e.cfg.Tau, s.seedKeys...)
	}
	for _, k := range s.seedKeys {
		s.queried[k] = true
	}
	return nil
}

// Next returns the most promising unqueried candidate rule, or ok=false when
// the session is over (budget spent or no candidates left). Calling Next again
// before Answer returns the same pending suggestion. The heavy work — regrow
// the candidate hierarchy around the current positive set and traverse it — is
// done under the engine's read lock, so concurrent sessions step in parallel.
//
// The hierarchy depends only on the shared index and the positive set, and
// the positive set changes only on an accepted answer, so Next after a
// reject reuses the previous hierarchy and merely re-traverses it with the
// current scores; the hierarchy is regenerated only when |P| or the index
// version changed.
//
//darwin:replaypure
func (s *Session) Next() (Suggestion, bool) {
	if s.pending != nil {
		return s.pending.sug, true
	}
	if s.done || s.report.Questions >= s.budget {
		return Suggestion{}, false
	}
	//darwin:replaypure-exempt step-latency metric only; never enters session state
	stepStart := time.Now()
	defer func() {
		//darwin:replaypure-exempt step-latency metric only; never enters session state
		d := time.Since(stepStart)
		s.lastStep = d
		s.stepTotal += d
		s.stepCount++
		nextDurations.Observe(d.Seconds())
	}()
	e := s.e
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()

	// Self-heal after live-corpus growth: extend the session's score vector
	// and positive-set mirror to the current corpus length (new sentences
	// start at the untrained prior 0.5 until the next retrain). The index
	// version bump that accompanied the growth forces the hierarchy
	// regeneration below.
	if n := e.corp.Len(); n > len(s.scores) {
		for len(s.scores) < n {
			s.scores = append(s.scores, 0.5)
		}
		s.posBits = s.posBits.Grow(n)
	}

	// Line 6: (re)generate the candidate hierarchy, unless the cached one is
	// still valid.
	if ixVer := e.ix.Version(); s.hier == nil || s.hierPos != len(s.positives) || s.hierIxVer != ixVer {
		s.hier = hierarchy.GenerateBits(e.ix, s.posBits, e.cfg.hierarchyConfig())
		s.hierPos = len(s.positives)
		s.hierIxVer = ixVer
		s.hierGens++
	}
	h := s.hier
	st := &traversal.State{
		Hierarchy: h,
		Index:     e.ix,
		Positives: s.positives,
		PosBits:   s.posBits,
		Scores:    s.scores,
		Queried:   s.queried,
	}
	// Make sure local strategies know about the seed rules' neighborhoods on
	// the first iteration.
	if !s.seeded {
		for _, k := range s.seedKeys {
			s.trav.Reseed(st, k)
		}
		s.seeded = true
	}

	// Line 7: pick the next rule to verify.
	key, ok := s.trav.Next(st)
	if !ok {
		s.done = true
		return Suggestion{}, false
	}
	s.queried[key] = true
	cov := coverageIDs(e.ix, h, key)
	heur := heuristicOf(e.ix, h, key)

	benefit, newCov := st.BenefitNewOf(key)
	avgBenefit := 0.0
	if newCov > 0 {
		avgBenefit = benefit / float64(newCov)
	}
	s.pending = &pendingSuggestion{
		sug: Suggestion{
			Key:         key,
			Rule:        ruleString(heur, key),
			Coverage:    len(cov),
			NewCoverage: newCov,
			Benefit:     benefit,
			AvgBenefit:  avgBenefit,
			SampleIDs:   oracle.SampleCoverage(cov, e.cfg.OracleSampleSize, s.rng),
		},
		heur: heur,
		cov:  cov,
		st:   st,
	}
	return s.pending.sug, true
}

// Answer records the caller's verdict on the pending suggestion (Algorithm 1
// lines 8-12): on accept it extends the positive set with the rule's coverage
// and retrains the classifier; either way it informs the traversal strategy.
// The key must match the pending suggestion's key.
//
//darwin:replaypure
func (s *Session) Answer(key string, accept bool) (RuleRecord, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters session state
	defer answerDurations.ObserveSince(time.Now())
	if s.pending == nil {
		return RuleRecord{}, fmt.Errorf("core: no pending suggestion to answer (call Next first)")
	}
	if key != s.pending.sug.Key {
		return RuleRecord{}, fmt.Errorf("core: answer for %q does not match pending suggestion %q", key, s.pending.sug.Key)
	}
	pending := s.pending
	s.pending = nil

	q := s.report.Questions + 1
	rec := RuleRecord{
		Question: q,
		Key:      key,
		Rule:     pending.sug.Rule,
		Coverage: len(pending.cov),
		Accepted: accept,
	}
	if accept {
		// Lines 9-12: extend P, retrain, rescore.
		rec.CoverageIDs = pending.cov
		rec.AddedIDs = s.addPositives(pending.cov)
		s.report.Accepted = append(s.report.Accepted, rec)
		s.retrain()
	}
	rec.PositivesAfter = len(s.positives)
	s.report.History = append(s.report.History, rec)
	s.report.Questions = q

	// Feedback may walk the index's parent/child edges.
	s.e.ixMu.RLock()
	s.trav.Feedback(pending.st, key, accept)
	s.e.ixMu.RUnlock()
	return rec, nil
}

// addPositives inserts the coverage IDs into both representations of P (the
// report map and the kernel bitset) and returns the newly added ids.
//
//darwin:replaypure
func (s *Session) addPositives(cov []int) []int {
	added := addCoverage(s.positives, cov)
	for _, id := range added {
		s.posBits.Add(id)
	}
	return added
}

// HierarchyGenerations returns how many times the session regenerated its
// candidate hierarchy. With incremental reuse this equals one per
// positive-set change (plus one per shared-index growth), not one per Next.
func (s *Session) HierarchyGenerations() int { return s.hierGens }

// StepLatency returns the duration of the last Next that did real work and
// the average across all of them (zero before the first step).
func (s *Session) StepLatency() (last, avg time.Duration) {
	if s.stepCount > 0 {
		avg = s.stepTotal / time.Duration(s.stepCount)
	}
	return s.lastStep, avg
}

// Done reports whether the session is over: the budget is spent or the
// traversal ran out of candidates.
func (s *Session) Done() bool {
	return s.pending == nil && (s.done || s.report.Questions >= s.budget)
}

// Budget returns the session's oracle query budget.
func (s *Session) Budget() int { return s.budget }

// Questions returns the number of questions answered so far.
func (s *Session) Questions() int { return s.report.Questions }

// PositivesCount returns |P| without copying the set.
func (s *Session) PositivesCount() int { return len(s.positives) }

// Positives returns a copy of the discovered positive set P.
func (s *Session) Positives() map[int]bool {
	out := make(map[int]bool, len(s.positives))
	for id := range s.positives {
		out[id] = true
	}
	return out
}

// Scores returns the session's current p_s estimates (indexed by sentence
// ID). The slice is owned by the session.
func (s *Session) Scores() []float64 { return s.scores }

// Classifier returns the session's sentence classifier.
func (s *Session) Classifier() *classifier.SentenceClassifier { return s.clf }

// Report returns a snapshot of the run so far: the records share memory with
// the session but the record slices and the positive set are copied, so the
// snapshot stays stable while the session keeps running.
func (s *Session) Report() *Report {
	rep := &Report{
		Accepted:   append([]RuleRecord(nil), s.report.Accepted...),
		History:    append([]RuleRecord(nil), s.report.History...),
		Positives:  s.Positives(),
		Questions:  s.report.Questions,
		IndexBuild: s.e.indexBuild,
		Total:      time.Since(s.start),
	}
	return rep
}

// retrain refits the classifier on the current positive set and refreshes the
// p_s scores, honouring the lazy re-scoring optimization when enabled. It
// runs under the engine's read lock: training and scoring read the shared
// corpus and feature cache, which a concurrent ingest grows under the write
// lock.
func (s *Session) retrain() {
	s.e.ixMu.RLock()
	defer s.e.ixMu.RUnlock()
	if err := s.clf.TrainFromPositives(s.positives); err != nil {
		// Not enough signal to train (should not happen once P is non-empty);
		// keep previous scores.
		return
	}
	*s.retrainCount++
	n := *s.retrainCount
	fullRescore := !s.e.cfg.LazyScoring || n%3 == 1 || n <= 1
	if fullRescore {
		all := s.clf.ScoreAll()
		copy(s.scores, all)
		return
	}
	thr := s.e.cfg.LazyScoreThreshold
	for id := 0; id < len(s.scores) && id < s.e.corp.Len(); id++ {
		if s.scores[id] > thr || s.positives[id] {
			s.scores[id] = s.clf.ScoreOne(id)
		}
	}
}
