package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

const promBefore = `# HELP darwin_steps_total Steps.
# TYPE darwin_steps_total counter
darwin_steps_total{dataset="directions",kind="accept"} 3
darwin_steps_total{dataset="directions",kind="reject"} 10
darwin_steps_total{dataset="musicians",kind="accept"} 1
# TYPE darwin_fit_seconds histogram
darwin_fit_seconds_bucket{le="0.01"} 1
darwin_fit_seconds_bucket{le="0.1"} 2
darwin_fit_seconds_bucket{le="+Inf"} 2
darwin_fit_seconds_sum 0.06
darwin_fit_seconds_count 2
darwin_note{msg="a \"quoted\" \\ value, with comma"} 1
`

const promAfter = `darwin_steps_total{dataset="directions",kind="accept"} 5
darwin_steps_total{dataset="directions",kind="reject"} 30
darwin_steps_total{dataset="musicians",kind="accept"} 1
darwin_fit_seconds_bucket{le="0.01"} 1
darwin_fit_seconds_bucket{le="0.1"} 6
darwin_fit_seconds_bucket{le="+Inf"} 12
darwin_fit_seconds_sum 2.26
darwin_fit_seconds_count 12
`

func mustParse(t *testing.T, text string) promSnapshot {
	t.Helper()
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParsePromLabelsAndEscapes(t *testing.T) {
	p := mustParse(t, promBefore)
	if got := p.sum("darwin_note", map[string]string{"msg": `a "quoted" \ value, with comma`}); got != 1 {
		t.Errorf("escaped label value not matched: %v", got)
	}
	if got := p.sum("darwin_steps_total", map[string]string{"kind": "accept"}); got != 4 {
		t.Errorf("accept steps = %v, want 4", got)
	}
	if got := p.max("darwin_steps_total", nil); got != 10 {
		t.Errorf("max = %v, want 10", got)
	}
	for _, bad := range []string{"darwin_x", `darwin_x{a="b} 1`, `darwin_x{a} 1`, "darwin_x one"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestPromCounterAndHistogramDeltas(t *testing.T) {
	d := promDelta{mustParse(t, promBefore), mustParse(t, promAfter)}
	if got := d.counter("darwin_steps_total", map[string]string{"dataset": "directions"}); got != 22 {
		t.Errorf("directions step delta = %v, want 22", got)
	}
	if got := d.counter("darwin_steps_total", map[string]string{"dataset": "musicians"}); got != 0 {
		t.Errorf("musicians step delta = %v, want 0", got)
	}
	if got := d.histCount("darwin_fit_seconds", nil); got != 10 {
		t.Errorf("fit count delta = %v, want 10", got)
	}
	if got := d.histMean("darwin_fit_seconds", nil); math.Abs(got-0.22) > 1e-9 {
		t.Errorf("fit mean = %v, want 0.22", got)
	}
	// Interval buckets: 0 in (0, 0.01], 4 in (0.01, 0.1], 6 above 0.1.
	if got := d.histQuantile("darwin_fit_seconds", nil, 0.2); math.Abs(got-0.055) > 1e-9 {
		t.Errorf("p20 = %v, want 0.055 (halfway through the second bucket)", got)
	}
	if got := d.histQuantile("darwin_fit_seconds", nil, 0.99); got != 0.1 {
		t.Errorf("p99 = %v, want the highest finite bound 0.1", got)
	}
	if got := d.histMean("darwin_missing", nil); got != 0 {
		t.Errorf("mean of an absent histogram = %v", got)
	}
}

// The parser reads what the program's registry actually renders.
func TestParsePromFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterVec("darwin_test_total", "Test.", "kind").With("a").Add(7)
	h := reg.Histogram("darwin_test_seconds", "Test.", []float64{0.001, 0.01})
	h.Observe(0.005)
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	p := mustParse(t, b.String())
	if got := p.sum("darwin_test_total", map[string]string{"kind": "a"}); got != 7 {
		t.Errorf("counter = %v, want 7", got)
	}
	d := promDelta{nil, p}
	if got := d.histCount("darwin_test_seconds", nil); got != 2 {
		t.Errorf("histogram count = %v, want 2", got)
	}
	if got := d.histQuantile("darwin_test_seconds", nil, 0.5); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("median = %v, want 0.01", got)
	}
}
