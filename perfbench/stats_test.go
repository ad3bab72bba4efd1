package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got, ok := percentile(xs, tc.p); !ok || got != tc.want {
			t.Errorf("p%v = %v, %v; want %v", tc.p, got, ok, tc.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	// The input is not reordered.
	ys := []float64{3, 1, 2}
	percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("percentile sorted its input: %v", ys)
	}
}

func TestSamplesBeyondPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {99, 90, 9}, {20, 50, 10}, {19, 50, 9}, {0, 50, 0}, {1, 100, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, every: 100 * time.Millisecond}
	ms := time.Millisecond
	// Request 0 is sent on time and takes 250ms; the single-sender loop
	// sends request 1 (due at 100ms) at 250ms and request 2 (due at 200ms)
	// when request 1 returns at 300ms. Request 3 (due at 300ms) goes out on
	// time again.
	for _, tc := range []struct {
		i             int
		sent, done    time.Duration
		latency, late time.Duration
	}{
		{0, 0, 250 * ms, 250 * ms, 0},
		{1, 250 * ms, 300 * ms, 200 * ms, 150 * ms},
		{2, 300 * ms, 320 * ms, 120 * ms, 100 * ms},
		{3, 300 * ms, 310 * ms, 10 * ms, 0},
		// Sent early (clock jitter): no negative lateness.
		{4, 399 * ms, 410 * ms, 10 * ms, 0},
	} {
		got := s.timing(tc.i, t0.Add(tc.sent), t0.Add(tc.done))
		if got.latency != tc.latency || got.lateness != tc.late {
			t.Errorf("request %d: latency %v lateness %v, want %v and %v", tc.i, got.latency, got.lateness, tc.latency, tc.late)
		}
	}
}
