package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// summary holds the end-to-end figures of one run.
type summary struct {
	steps, accepts, rejects         int
	stepP50, stepP99                float64
	acceptP50, acceptP90, rejectP50 float64
	stepsPerSec, labelPerSec        float64
	ingestP50, ingestP90            float64
	tracedP50, untracedP50          float64
}

func summarize(r *runner, elapsed time.Duration) summary {
	var all, acc, rej, traced, untraced []float64
	for _, s := range r.steps {
		all = append(all, s.ms)
		if s.accept {
			acc = append(acc, s.ms)
		} else {
			rej = append(rej, s.ms)
		}
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			untraced = append(untraced, s.ms)
		}
	}
	s := summary{steps: len(all), accepts: len(acc), rejects: len(rej)}
	s.stepP50, _ = percentile(all, 50)
	s.stepP99, _ = percentile(all, 99)
	s.acceptP50, _ = percentile(acc, 50)
	s.acceptP90, _ = percentile(acc, 90)
	s.rejectP50, _ = percentile(rej, 50)
	s.stepsPerSec = float64(len(all)) / elapsed.Seconds()
	s.labelPerSec = median(r.labelRates)
	s.ingestP50, _ = percentile(r.ingestMs, 50)
	s.ingestP90, _ = percentile(r.ingestMs, 90)
	s.tracedP50, _ = percentile(traced, 50)
	s.untracedP50, _ = percentile(untraced, 50)
	return s
}

// scrape reads the program's own metrics as the /metrics endpoint renders
// them (every in-process daemon shares the one registry).
func scrape() (promSnapshot, error) {
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(b.String())
}

type layerInputs struct {
	m0, m1, m2 promSnapshot // before the run, after it, after the epilogue
	recovery   recoveryInfo
}

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// perLayer computes the per-layer table of a traced run from its spans,
// the program's metric deltas and replays of public layer calls.
func perLayer(r *runner, s summary, li layerInputs) (map[string]metric, error) {
	run := promDelta{li.m0, li.m1}
	all := promDelta{li.m0, li.m2}
	steps := float64(s.steps)
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 50); return v }

	spans := r.tr.spans
	put("sdk.suggest_ms_p50", p50(durations(spans, layerSDK, "suggest")), "ms")
	put("sdk.answer_ms_p50", p50(durations(spans, layerSDK, "answer")), "ms")
	put("router.self_ms_p50", p50(selfTimes(spans, layerRouter, layerTransport)), "ms")
	put("router.retries", run.counter("darwin_shard_retries_total", nil), "count")
	put("transport.ms_p50", p50(selfTimes(spans, layerTransport, layerShard)), "ms")

	// Server self time: the shard handler span of suggestion/answers minus
	// the mean time the workspace histograms saw per call.
	wsSug, wsAns := "darwin_workspace_suggest_duration_seconds", "darwin_workspace_answer_duration_seconds"
	var handler []float64
	for _, sp := range spans {
		if sp.Layer == layerShard && (strings.HasSuffix(sp.Name, "/suggestion") || strings.HasSuffix(sp.Name, "/answers")) {
			handler = append(handler, ms(sp.dur()))
		}
	}
	wsMean := 1000 * per(run.histSum(wsSug, nil)+run.histSum(wsAns, nil), run.histCount(wsSug, nil)+run.histCount(wsAns, nil))
	put("server.self_ms_mean", mean(handler)-wsMean, "ms")
	put("workspace.suggest_ms_mean", 1000*run.histMean(wsSug, nil), "ms")
	put("workspace.answer_ms_mean", 1000*run.histMean(wsAns, nil), "ms")
	put("workspace.suggest_ms_p99", 1000*run.histQuantile(wsSug, nil, 0.99), "ms")

	fit := "darwin_classifier_fit_duration_seconds"
	put("classifier.fits_per_accept", per(run.counter("darwin_classifier_fits_total", nil), float64(s.accepts)), "count")
	put("classifier.fit_ms_mean", 1000*run.histMean(fit, nil), "ms")
	hits, misses := run.counter("darwin_classifier_feature_cache_hits_total", nil), run.counter("darwin_classifier_feature_cache_misses_total", nil)
	put("classifier.cache_hit_frac", per(hits, hits+misses), "frac")
	regen := "darwin_hierarchy_regen_duration_seconds"
	put("hierarchy.regens_per_step", per(run.counter("darwin_hierarchy_regens_total", nil), steps), "count")
	put("hierarchy.regen_ms_mean", 1000*run.histMean(regen, nil), "ms")

	put("journal.appends_per_step", per(run.counter("darwin_journal_appends_total", nil), steps), "count")
	put("journal.append_ms_mean", 1000*run.histMean("darwin_journal_append_duration_seconds", nil), "ms")
	put("journal.fsyncs_per_step", per(run.counter("darwin_journal_fsyncs_total", nil), steps), "count")
	put("journal.fsync_ms_mean", 1000*run.histMean("darwin_journal_fsync_duration_seconds", nil), "ms")
	put("journal.compactions", run.counter("darwin_journal_compactions_total", nil), "count")
	put("journal.bytes_per_step", per(float64(r.tr.replBytes.Load()), steps), "B")

	put("replicate.sync_wait_ms_mean", 1000*run.histMean("darwin_replication_sync_wait_seconds", nil), "ms")
	put("replicate.applied_events", run.counter("darwin_replication_applied_events_total", nil), "count")
	put("replicate.sync_timeouts", run.counter("darwin_replication_sync_timeouts_total", nil), "count")
	put("replicate.lag_events_max", r.lagMax, "count")

	put("ingest.apply_ms_mean", 1000*all.histMean("darwin_ingest_duration_seconds", nil), "ms")
	put("ingest.sentences", all.counter("darwin_ingest_sentences_total", nil), "count")
	put("loadgen.ingest_late_ms_max", ms(r.ingestLate), "ms")
	for _, stage := range []string{"resolve", "votes", "aggregate", "write"} {
		put("autolabel.stage_ms_mean."+stage, 1000*all.histMean("darwin_autolabel_stage_duration_seconds", map[string]string{"stage": stage}), "ms")
	}
	put("recovery.events", float64(li.recovery.events), "count")
	put("recovery.workspaces", float64(li.recovery.workspaces), "count")
	put("recovery.replay_ms", 1000*li.m2.max("darwin_workspace_recovery_duration_seconds", nil), "ms")
	put("bitset.array_containers", li.m1.sum("darwin_bitset_containers", map[string]string{"kind": "array"}), "count")
	put("bitset.bitmap_containers", li.m1.sum("darwin_bitset_containers", map[string]string{"kind": "bitmap"}), "count")
	put("trace.overhead_frac", per(s.tracedP50, s.untracedP50)-1, "frac")

	if err := replay(r, put); err != nil {
		return nil, err
	}
	return out, nil
}

// replay re-runs the public set-up and per-step layer calls on a private
// copy of the corpus, with the largest positive set the run produced.
func replay(r *runner, put func(string, float64, string)) error {
	cfg := engineConfig(r.in.seed, r.in.w.sketchDepth)
	c := r.in.corpus()
	t := time.Now()
	c.Preprocess(corpus.PreprocessOptions{Parse: cfg.UseParseTrees})
	put("setup.preprocess_s", time.Since(t).Seconds(), "s")
	t = time.Now()
	emb := embedding.Train(c.TokenizedSentences(), cfg.Embedding)
	put("setup.embedding_s", time.Since(t).Seconds(), "s")
	t = time.Now()
	ix := index.Build(c, sketch.NewBuilder(grammar.NewRegistry(tokensregex.New()), cfg.SketchDepth))
	ix.SetKernel(cfg.Kernel)
	put("setup.index_build_s", time.Since(t).Seconds(), "s")
	t = time.Now()
	ix.Prune(cfg.MinRuleCoverage)
	put("setup.prune_s", time.Since(t).Seconds(), "s")
	put("index.nodes", float64(ix.Len()), "count")

	pos := map[int]bool{}
	for _, id := range r.bestP {
		if id < c.Len() {
			pos[id] = true
		}
	}
	clf := classifier.NewSentenceClassifier(c, emb, cfg.Classifier, cfg.ClassifierKind)
	if err := clf.TrainFromPositives(pos); err != nil {
		return fmt.Errorf("replay classifier: %w", err)
	}
	t = time.Now()
	scores := clf.ScoreAll()
	put("classifier.score_all_ms", ms(time.Since(t)), "ms")

	posBits := bitset.FromMap(pos)
	t = time.Now()
	h := hierarchy.GenerateBits(ix, posBits, hierarchy.Config{
		NumCandidates: cfg.NumCandidates, MaxRuleDepth: cfg.MaxRuleDepth, MinCoverage: cfg.MinRuleCoverage, Cleanup: true,
	})
	put("hierarchy.generate_ms", ms(time.Since(t)), "ms")
	keys := h.NonRootKeys()
	put("traversal.candidates", float64(len(keys)), "count")
	t = time.Now()
	best := -1.0
	for _, k := range keys {
		if n := ix.Node(k); n != nil {
			if v, _ := n.Bits().AndNotSum(posBits, scores); v > best {
				best = v
			}
		}
	}
	put("traversal.pick_ms", ms(time.Since(t)), "ms")
	return nil
}

// writeTrace writes the traced run's spans and tables beside the results.
func writeTrace(w workload, seed int64, tr *tracer, s summary, layers, e2e map[string]metric) error {
	path := filepath.Join(resultsDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	raw, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Accepts  int               `json:"accepts"`
		Rejects  int               `json:"rejects"`
		PerLayer map[string]metric `json:"per_layer"`
		EndToEnd map[string]metric `json:"end_to_end_traced"`
		Spans    []span            `json:"spans"`
	}{w.name, seed, s.accepts, s.rejects, layers, e2e, tr.spans})
	if err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%d spans)\n", path, len(tr.spans))
	return os.WriteFile(path, raw, 0o644)
}
