// Command perfbench measures what a Darwin annotator waits for, end to end
// through the deployed path: the pkg/darwin SDK client, the shard router's
// /v2 edge, and two journaled, synchronously replicated darwind shards over
// loopback HTTP, all in one process and built through public constructors.
//
//	go run . --workload annotate --seed 1 --seconds 10 --trace 0
//
// Workloads: annotate (reject-heavy, two annotators per workspace on
// directions), annotate-large (accept-heavy, professions at 100K sentences,
// a labeling job per spent workspace) and ingest (one annotator beside an
// open-loop ingest client). The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones, whose spans
// and table are also written under .bench_build/results. A failed
// correctness check makes the exit status non-zero.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultsDir holds traces and report digests, relative to the checkout.
const resultsDir = ".bench_build/results"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: annotate, annotate-large or ingest")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 10, "how long the workload's traffic runs")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload annotate|annotate-large|ingest --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	// A run that cannot finish in time fails rather than hangs.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within 170s\n")
		os.Exit(1)
	})
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in, err := newInputs(w, seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up, several times; the last stack serves the run.
	var setupTimes []float64
	var st *stack
	for i := 0; i < setups; i++ {
		var t *tracer
		if i == setups-1 {
			t = tr
		}
		s, took, err := buildStack(ctx, in, filepath.Join(work, fmt.Sprintf("stack%d", i)), t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, took.Seconds())
		if i < setups-1 {
			s.close()
			continue
		}
		st = s
	}
	defer st.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapPerSentence := float64(mem.HeapAlloc) / float64(st.sentences)

	r := newRunner(ctx, in, st)
	m0, err := scrape()
	if err != nil {
		return nil, err
	}
	elapsed := r.main(d)
	m1, err := scrape()
	if err != nil {
		return nil, err
	}
	recovery, recInfo, err := r.recover()
	if err != nil {
		r.fail("restart: %v", err)
	}
	r.epilogue()
	m2, err := scrape()
	if err != nil {
		return nil, err
	}
	if err := checkDigests(w, seed, r.digests()); err != nil {
		r.fail("%v", err)
	}

	s := summarize(r, elapsed)
	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	// The gated end-to-end metrics: those that repeated across seeds.
	e2e := map[string]metric{
		"setup_s":                 {median(setupTimes), "s"},
		"heap_bytes_per_sentence": {heapPerSentence, "B"},
	}
	// The annotator's wait and the rest: printed with their sample counts but
	// not gated, because they did not repeat across seeds on the 2-vCPU
	// hosts this benchmark was built on (see README.md).
	ungated := map[string]metric{
		"recovery_s":            {recovery.Seconds(), "s"},
		"ingest_p50_ms":         {s.ingestP50, "ms"},
		"step_p50_ms":           {s.stepP50, "ms"},
		"step_p99_ms":           {s.stepP99, "ms"},
		"reject_step_p50_ms":    {s.rejectP50, "ms"},
		"accept_step_p50_ms":    {s.acceptP50, "ms"},
		"accept_step_p90_ms":    {s.acceptP90, "ms"},
		"steps_per_s":           {s.stepsPerSec, "1/s"},
		"label_sentences_per_s": {s.labelPerSec, "1/s"},
		"ingest_p90_ms":         {s.ingestP90, "ms"},
	}
	// Sample counts, and for percentiles the percentile they are taken at.
	samples := map[string]int{
		"setup_s": len(setupTimes), "step_p50_ms": s.steps, "step_p99_ms": s.steps,
		"accept_step_p50_ms": s.accepts, "accept_step_p90_ms": s.accepts, "reject_step_p50_ms": s.rejects,
		"steps_per_s": s.steps, "recovery_s": restarts, "label_sentences_per_s": len(r.labelRates),
		"ingest_p50_ms": len(r.ingestMs), "ingest_p90_ms": len(r.ingestMs), "heap_bytes_per_sentence": 1,
	}
	fmt.Printf("workload %s seed %d: %d steps (%d accepts, %d rejects) in %.2fs, %d workspace closes, %d labeling jobs, %d ingest batches, %d failed of %d operations\n",
		w.name, seed, s.steps, s.accepts, s.rejects, elapsed.Seconds(), len(r.spent), len(r.labelRates), len(r.ingestMs), res.Failed, res.Attempted)
	fmt.Printf("set-up times: %v s\n", setupTimes)
	if dg := r.digests(); dg != "" {
		fmt.Printf("report digests: %s\n", dg)
	}
	for _, ms := range []map[string]metric{e2e, ungated} {
		for name := range ms {
			if samples[name] == 0 {
				r.fail("%s: the run produced no samples", name)
			}
		}
	}
	printTable("end-to-end", e2e, samples)
	printTable("end-to-end, not gated", ungated, samples)
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res.Correct = len(r.problems) == 0
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := perLayer(r, s, layerInputs{m0: m0, m1: m1, m2: m2, recovery: recInfo})
	if err != nil {
		return nil, err
	}
	printTable("per-layer", layers, nil)
	for name, m := range ungated {
		e2e[name] = m
	}
	if err := writeTrace(w, seed, tr, s, layers, e2e); err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// printTable prints metrics by name with their units and, when samples is
// given, their sample counts; a percentile also shows how many samples lie
// beyond it (ten or more make it worth reporting).
func printTable(title string, ms map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, m.Value, m.Unit)
		if samples != nil {
			line += fmt.Sprintf(" (n=%d", samples[n])
			for _, p := range []float64{50, 90, 99} {
				if strings.Contains(n, fmt.Sprintf("_p%g_", p)) {
					line += fmt.Sprintf(", %d beyond p%g", beyond(samples[n], p), p)
				}
			}
			line += ")"
		}
		fmt.Println(line)
	}
}

// checkDigests compares this run's per-workspace report digests with those
// recorded by an earlier run of the same benchmark binary, workload and seed:
// with one annotator per workspace the script is deterministic, so the
// reports of the workspaces both runs spent must match byte for byte.
func checkDigests(w workload, seed int64, digests string) error {
	if digests == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(resultsDir, fmt.Sprintf("digests-%s-seed%d-%x.txt", w.name, seed, sum[:6]))
	prev, err := os.ReadFile(path)
	if err == nil {
		a, b := string(prev), digests
		n := min(len(a), len(b))
		if a[:n] != b[:n] {
			return fmt.Errorf("final reports differ from an earlier run with seed %d: %s vs %s", seed, a, b)
		}
		if len(a) >= len(b) {
			return nil
		}
	}
	return os.WriteFile(path, []byte(digests), 0o644)
}
