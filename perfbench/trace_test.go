package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func sp(req, layer string, start, end int64) span {
	return span{Req: req, Layer: layer, Start: start, End: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := sp("r", layerRouter, 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{sp("r", "c", 10, 20), sp("r", "c", 30, 50)}, 70},
		{"overlapping", []span{sp("r", "c", 10, 40), sp("r", "c", 30, 60)}, 50},
		{"nested", []span{sp("r", "c", 10, 90), sp("r", "c", 20, 30)}, 20},
		{"touching", []span{sp("r", "c", 10, 20), sp("r", "c", 20, 30)}, 80},
		{"clipped to parent", []span{sp("r", "c", -50, 10), sp("r", "c", 95, 200)}, 85},
		{"outside", []span{sp("r", "c", 100, 150)}, 100},
		{"unsorted", []span{sp("r", "c", 60, 70), sp("r", "c", 10, 65)}, 40},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesMatchByRequest(t *testing.T) {
	spans := []span{
		sp("a", layerRouter, 0, 10), sp("a", layerTransport, 2, 8),
		sp("b", layerRouter, 0, 10), sp("b", layerTransport, 1, 3), sp("b", layerTransport, 5, 9), // a retry
		sp("c", layerTransport, 0, 10), // no router span: ignored
	}
	got := selfTimes(spans, layerRouter, layerTransport)
	want := []float64{ms(4), ms(4)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerRecordsOnlyTracedRequests(t *testing.T) {
	tr := newTracer()
	h := tr.wrapShard("alpha", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	for _, id := range []string{tracedPrefix + "1", "plain", ""} {
		req := httptest.NewRequest(http.MethodGet, "/v2/labelers/x/suggestion", nil)
		if id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	if len(tr.spans) != 1 || tr.spans[0].Req != tracedPrefix+"1" || tr.spans[0].Layer != layerShard {
		t.Fatalf("spans %+v, want one shard span for the traced request", tr.spans)
	}
	var none *tracer
	inner := http.NotFoundHandler()
	if got := none.wrapRouter(inner); got == nil {
		t.Fatal("nil tracer dropped the handler")
	}
}
