package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Span layers, outermost first. One annotator step's spans share the
// request id the SDK call carried, which the router forwards to the shard.
const (
	layerSDK       = "sdk"
	layerRouter    = "router"
	layerTransport = "transport"
	layerShard     = "shard"
)

// tracedPrefix marks the request ids whose spans are recorded; requests
// without it pass the wrappers untouched.
const tracedPrefix = "pbtrace-"

// span is one timed call at a layer boundary, in nanoseconds since the
// tracer started.
type span struct {
	Req   string `json:"req"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and its wrappers return what they wrap.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// replBytes counts the journal bytes shipped to replication followers.
	replBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs f as a span when id is traced.
func (t *tracer) time(id, layer, name string, f func()) {
	if t == nil || !strings.HasPrefix(id, tracedPrefix) {
		f()
		return
	}
	s := span{Req: id, Layer: layer, Name: name, Start: t.now()}
	f()
	s.End = t.now()
	t.record(s)
}

func (t *tracer) wrapHandler(layer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.time(r.Header.Get(obs.RequestIDHeader), layer, name+" "+r.Method+" "+r.URL.Path, func() { h.ServeHTTP(w, r) })
	})
}

// wrapRouter times the router's /v2 edge; wrapShard one shard's handler.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return t.wrapHandler(layerRouter, "router", h)
}

func (t *tracer) wrapShard(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	inner := t.wrapHandler(layerShard, name, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v2/replication/datasets/") && r.ContentLength > 0 {
			t.replBytes.Add(r.ContentLength)
		}
		inner.ServeHTTP(w, r)
	})
}

// wrapTransport times the router's round trips to the shards.
func (t *tracer) wrapTransport(rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return roundTripFunc(func(r *http.Request) (resp *http.Response, err error) {
		t.time(r.Header.Get(obs.RequestIDHeader), layerTransport, r.Method+" "+r.URL.Path, func() { resp, err = rt.RoundTrip(r) })
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// selfTime is a parent span's duration minus the part of its interval that
// its children cover; overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// selfTimes computes, for every span of the parent layer, its self time
// against the spans of the child layer that carry the same request id.
func selfTimes(spans []span, parentLayer, childLayer string) []float64 {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Layer == childLayer {
			children[s.Req] = append(children[s.Req], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Layer == parentLayer {
			out = append(out, ms(selfTime(s, children[s.Req])))
		}
	}
	return out
}

// durations lists the span durations (ms) of one layer whose name has the
// given substring.
func durations(spans []span, layer, nameHas string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && strings.Contains(s.Name, nameHas) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
