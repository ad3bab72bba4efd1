package core

import (
	"repro/internal/classifier"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/traversal"
)

// This file is the attach contract for the discovery loop — workspaces
// (internal/workspace) — which owns its mutable state (positive set,
// classifier, scores, traversal) but attaches to the engine's shared
// corpus, index, embedding model and feature cache. A loop built on these
// hooks inherits the engine's concurrency contract: shared state is only
// read under WithIndexRead, and the post-build index mutations go through
// MaterializeRule and Ingest.

// AttachClassifier returns a fresh classifier over the engine's corpus and
// embedding model, sharing the engine's corpus-level feature cache. An
// explicit Config.Classifier.Seed wins over the given seed.
func (e *Engine) AttachClassifier(seed int64) *classifier.SentenceClassifier {
	clfCfg := e.cfg.Classifier
	if clfCfg.Seed == 0 {
		clfCfg.Seed = seed
	}
	clf := classifier.NewSentenceClassifier(e.corp, e.emb, clfCfg, e.cfg.ClassifierKind)
	// The cache's eligibility check reads the corpus length, which a
	// concurrent ingest grows under the write lock.
	e.ixMu.RLock()
	clf.ShareFeatureCache(e.featCache)
	e.ixMu.RUnlock()
	return clf
}

// WithIndexRead runs f with the shared index under the engine's read lock,
// the lock every loop step holds while generating hierarchies and scoring
// candidates. f must not retain the index or mutate it.
//
//darwin:lockrank-callback index
func (e *Engine) WithIndexRead(f func(ix *index.Index)) {
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	f(e.ix)
}

// NewTraversal builds the engine's configured traversal strategy (Local,
// Universal or Hybrid, with the configured τ), seeded with the given rule
// keys.
func (e *Engine) NewTraversal(seedKeys ...string) traversal.Traversal {
	return traversal.New(e.cfg.Traversal, e.cfg.Tau, seedKeys...)
}

// HierarchyConfig returns the hierarchy-generation settings of the engine config.
func (e *Engine) HierarchyConfig() hierarchy.Config { return e.cfg.hierarchyConfig() }

// LazyScoring returns the §4.5 lazy re-scoring settings (enabled, threshold).
func (e *Engine) LazyScoring() (bool, float64) {
	return e.cfg.LazyScoring, e.cfg.LazyScoreThreshold
}

// OracleSampleSize returns how many example sentences accompany a query.
func (e *Engine) OracleSampleSize() int { return e.cfg.OracleSampleSize }

// DefaultBudget returns the engine's configured oracle query budget.
func (e *Engine) DefaultBudget() int { return e.cfg.Budget }

// DefaultSeed returns the engine's configured random seed.
func (e *Engine) DefaultSeed() int64 { return e.cfg.Seed }

// SetMaterializeHook registers f to be called — under the engine's index
// write lock, in mutation order — with the rule specs of every seed-rule
// materialization (MaterializeRule). A journaling layer uses it to record
// index mutations in the exact order concurrent readers observed them, which is what makes replay deterministic: the hook
// and the hierarchy-generating read paths are serialized by the same lock.
// f must not call back into the engine. Pass nil to clear.
//
//darwin:lockrank-callback index
func (e *Engine) SetMaterializeHook(f func(specs []string)) {
	e.ixMu.Lock()
	e.matHook = f
	e.ixMu.Unlock()
}
