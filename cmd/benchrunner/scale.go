package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// Scale-experiment guards, enforced with a non-zero exit so CI fails when
// the adaptive kernel regresses.
const (
	// scaleMinMemoryReduction: the adaptive kernel's per-node coverage must
	// cost at most half of the dense mirror on the million-sentence
	// sparse-rule corpus — sparse rules must not pay dense cost.
	scaleMinMemoryReduction = 0.50
	// scaleStepRelBudget / scaleStepAbsFloorMillis bound the interactive
	// price of compression: the adaptive step mean must stay within 10% of
	// the dense kernel at paper scale (plus a small absolute floor so the
	// guard is stable when both means are fractions of a millisecond).
	scaleStepRelBudget      = 0.10
	scaleStepAbsFloorMillis = 0.25
)

// ScalePerf is the million-sentence snapshot written to BENCH_perf.json's
// "scale" section: total index memory, coverage memory for dense vs adaptive
// kernels over the same index, and the interactive step price of the
// compression.
type ScalePerf struct {
	// The memory measurement: professions at 1M sentences (1.1% positive),
	// one index measured under both kernels.
	Dataset          string  `json:"dataset"`
	Sentences        int     `json:"sentences"`
	IndexBuildMillis float64 `json:"index_build_ms"`
	IndexNodes       int     `json:"index_nodes"`
	// IndexHeapBytes is the whole index's live heap: after a GC with the
	// built and pruned index held, minus the heap before the build (the
	// corpus is held at both points). Unlike the coverage bytes below it
	// counts every node's key, edges and bookkeeping too.
	IndexHeapBytes            int64   `json:"index_heap_bytes"`
	IndexHeapBytesPerSentence float64 `json:"index_heap_bytes_per_sentence"`

	AdaptiveCoverageBytes    int     `json:"adaptive_coverage_bytes"`
	DenseCoverageBytes       int     `json:"dense_coverage_bytes"`
	AdaptiveBytesPerSentence float64 `json:"adaptive_bytes_per_sentence"`
	DenseBytesPerSentence    float64 `json:"dense_bytes_per_sentence"`
	// MemoryReduction is 1 - adaptive/dense; MinMemoryReduction is the CI
	// floor it must clear.
	MemoryReduction    float64 `json:"memory_reduction"`
	MinMemoryReduction float64 `json:"min_memory_reduction"`

	ArrayContainers  int `json:"array_containers"`
	BitmapContainers int `json:"bitmap_containers"`
	DenseContainers  int `json:"dense_containers"`

	// The latency measurement: runPerf's scripted reject-heavy session at
	// paper scale, once per kernel.
	StepDataset            string  `json:"step_dataset"`
	StepSentences          int     `json:"step_sentences"`
	AdaptiveStepMeanMillis float64 `json:"adaptive_step_mean_ms"`
	DenseStepMeanMillis    float64 `json:"dense_step_mean_ms"`
	StepBudgetMillis       float64 `json:"step_budget_ms"`
}

// runScale measures the adaptive coverage kernel at the paper's 1M-sentence
// scale and merges the numbers into BENCH_perf.json.
func runScale(perfPath string) error {
	header("Scale: adaptive vs dense coverage kernel at 1M sentences -> " + perfPath)

	// Memory: professions reaches the paper's 1M sentences at scale 10. The
	// index is built once (adaptive, the default) and the kernel is flipped
	// in place for the dense measurement — SetKernel only publishes dense
	// mirrors of the same stored sets, so both numbers describe the
	// identical coverage.
	const (
		memDataset = "professions"
		memScale   = 10.0
		memSeed    = 7
	)
	c, err := datagen.ByName(memDataset, memScale, memSeed)
	if err != nil {
		return err
	}
	c.Preprocess(corpus.PreprocessOptions{})
	cfg := perfConfig()
	heapBefore := liveHeap()
	buildStart := time.Now()
	ix := index.Build(c, sketch.NewBuilder(grammar.NewRegistry(tokensregex.New()), cfg.SketchDepth))
	ix.Prune(cfg.MinRuleCoverage)
	build := time.Since(buildStart)
	indexHeap := int64(liveHeap()) - int64(heapBefore)

	adaptiveBytes := ix.CoverageBytes()
	arrays, bitmaps, denseContainers := ix.ContainerStats()
	ix.SetKernel(index.KernelDense)
	denseBytes := ix.CoverageBytes()
	if denseBytes == 0 {
		return fmt.Errorf("scale: dense kernel reports zero coverage bytes")
	}
	reduction := 1 - float64(adaptiveBytes)/float64(denseBytes)

	// Latency: the identical scripted session runPerf tracks, driven once
	// per kernel on paper-scale directions. Fresh corpora per engine —
	// preprocessing mutates sentences in place.
	const (
		stepDataset = "directions"
		stepScale   = 0.5
		stepSeed    = 7
		steps       = 60
	)
	stepMean := func(kernel string) (float64, int, error) {
		sc, err := datagen.ByName(stepDataset, stepScale, stepSeed)
		if err != nil {
			return 0, 0, err
		}
		cfg := perfConfig()
		cfg.Kernel = kernel
		eng, err := core.New(sc, cfg)
		if err != nil {
			return 0, 0, err
		}
		mean, _, err := scriptedSession(eng, steps)
		return mean, sc.Len(), err
	}
	denseMean, stepSentences, err := stepMean(index.KernelDense)
	if err != nil {
		return err
	}
	adaptiveMean, _, err := stepMean(index.KernelAdaptive)
	if err != nil {
		return err
	}
	stepBudget := denseMean*(1+scaleStepRelBudget) + scaleStepAbsFloorMillis

	perf := &ScalePerf{
		Dataset:                   memDataset,
		Sentences:                 c.Len(),
		IndexBuildMillis:          float64(build) / float64(time.Millisecond),
		IndexNodes:                ix.Len(),
		IndexHeapBytes:            indexHeap,
		IndexHeapBytesPerSentence: float64(indexHeap) / float64(c.Len()),
		AdaptiveCoverageBytes:     adaptiveBytes,
		DenseCoverageBytes:        denseBytes,
		AdaptiveBytesPerSentence:  float64(adaptiveBytes) / float64(c.Len()),
		DenseBytesPerSentence:     float64(denseBytes) / float64(c.Len()),
		MemoryReduction:           reduction,
		MinMemoryReduction:        scaleMinMemoryReduction,
		ArrayContainers:           arrays,
		BitmapContainers:          bitmaps,
		DenseContainers:           denseContainers,
		StepDataset:               stepDataset,
		StepSentences:             stepSentences,
		AdaptiveStepMeanMillis:    adaptiveMean,
		DenseStepMeanMillis:       denseMean,
		StepBudgetMillis:          stepBudget,
	}
	if err := mergeScalePerf(perfPath, perf); err != nil {
		return err
	}
	fmt.Printf("sentences=%d nodes=%d index_build=%.0fms\n", perf.Sentences, perf.IndexNodes, perf.IndexBuildMillis)
	fmt.Printf("index heap: %d bytes (%.1f B/sentence)\n", indexHeap, perf.IndexHeapBytesPerSentence)
	fmt.Printf("coverage bytes: dense=%d (%.1f B/sentence)  adaptive=%d (%.1f B/sentence)  reduction=%.1f%% (floor %.0f%%)\n",
		denseBytes, perf.DenseBytesPerSentence, adaptiveBytes, perf.AdaptiveBytesPerSentence,
		reduction*100, scaleMinMemoryReduction*100)
	fmt.Printf("containers: array=%d bitmap=%d dense=%d\n", arrays, bitmaps, denseContainers)
	fmt.Printf("step mean (%s, %d sentences): dense=%.3fms adaptive=%.3fms (budget %.3fms)\n",
		stepDataset, stepSentences, denseMean, adaptiveMean, stepBudget)

	if reduction < scaleMinMemoryReduction {
		return fmt.Errorf("scale: adaptive kernel saves only %.1f%% of dense coverage memory, floor is %.0f%%",
			reduction*100, scaleMinMemoryReduction*100)
	}
	if adaptiveMean > stepBudget {
		return fmt.Errorf("scale: adaptive step mean %.3fms exceeds %.3fms (dense %.3fms + %.0f%% + %.2fms)",
			adaptiveMean, stepBudget, denseMean, scaleStepRelBudget*100, scaleStepAbsFloorMillis)
	}
	return nil
}

// liveHeap returns the live heap bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mergeScalePerf folds the scale numbers into BENCH_perf.json without
// disturbing the sections owned by the other experiments (same loose-JSON
// idiom as mergeAutolabelPerf).
func mergeScalePerf(path string, perf *ScalePerf) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("scale: %s exists but is not a JSON object: %v", path, err)
		}
	}
	section, err := json.Marshal(perf)
	if err != nil {
		return err
	}
	doc["scale"] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
