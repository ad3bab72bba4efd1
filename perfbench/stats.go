package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// reports ok=false for an empty input.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], true
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the p-th percentile's rank. A
// percentile is worth reporting when at least ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop send schedule: request i is due at
// start + i·every, whatever happened to the requests before it.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// openLoopTiming is one open-loop request's accounting: latency runs from
// when the request was due, so a stall is charged to every request it
// delays, and lateness is how far behind its schedule the generator sent it.
type openLoopTiming struct {
	latency  time.Duration
	lateness time.Duration
}

func (s schedule) timing(i int, sent, done time.Time) openLoopTiming {
	due := s.due(i)
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return openLoopTiming{latency: done.Sub(due), lateness: late}
}
