package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
)

// overheadBudget is the instrumentation-cost guard: with telemetry enabled
// the scripted labeler's mean step must stay within 5% of the disabled run,
// plus a small absolute floor so sub-millisecond steps don't fail on noise.
const (
	overheadRelBudget      = 0.05
	overheadAbsFloorMillis = 0.25
)

// runOverhead measures the telemetry tax on the interactive hot path: the
// same scripted labeler as runPerf, A/B'd with the obs registry disabled and
// enabled on the same engine in the same process. Fails (non-zero exit in
// CI) when the enabled mean exceeds the budget above.
func runOverhead(perfPath string) error {
	header("Overhead: telemetry A/B on the suggest step")
	const (
		dataset = "directions"
		scale   = 0.5
		steps   = 60
	)
	c, err := datagen.ByName(dataset, scale, 7)
	if err != nil {
		return err
	}
	engine, err := core.New(c, perfConfig())
	if err != nil {
		return err
	}

	// Warm up once (feature cache, page cache) so neither arm pays the
	// first-run cost, then measure disabled and enabled runs of the
	// identical deterministic labeler.
	defer obs.SetEnabled(true)
	if _, _, err := scriptedStepStats(engine, steps); err != nil {
		return err
	}
	obs.SetEnabled(false)
	offMean, offP95, err := scriptedStepStats(engine, steps)
	if err != nil {
		return err
	}
	obs.SetEnabled(true)
	onMean, onP95, err := scriptedStepStats(engine, steps)
	if err != nil {
		return err
	}

	budget := offMean*(1+overheadRelBudget) + overheadAbsFloorMillis
	fmt.Printf("step mean: disabled=%.3fms enabled=%.3fms (budget %.3fms)  p95: disabled=%.3fms enabled=%.3fms\n",
		offMean, onMean, budget, offP95, onP95)
	if rep, err := readPerfReport(perfPath); err == nil {
		fmt.Printf("committed %s: step mean=%.3fms p95=%.3fms (informational)\n",
			perfPath, rep.Current.StepMeanMillis, rep.Current.StepP95Millis)
	}
	if onMean > budget {
		return fmt.Errorf("overhead: instrumented step mean %.3fms exceeds %.3fms (disabled %.3fms + %.0f%% + %.2fms)",
			onMean, budget, offMean, overheadRelBudget*100, overheadAbsFloorMillis)
	}
	return nil
}

// scriptedStepStats runs runPerf's scripted reject-heavy labeler and returns
// the Suggest step mean and p95 in milliseconds.
func scriptedStepStats(engine *core.Engine, steps int) (mean, p95 float64, err error) {
	lat, _, err := scriptedSteps(engine, steps)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range lat {
		mean += v
	}
	mean /= float64(len(lat))
	sort.Float64s(lat)
	return mean, percentile(lat, 0.95), nil
}

// readPerfReport loads the committed BENCH_perf.json for the informational
// comparison line.
func readPerfReport(path string) (PerfReport, error) {
	var rep PerfReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(raw, &rep)
}
