package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBearerTokenAuth(t *testing.T) {
	srv, _ := newTestServer(t, Config{Token: "s3cret"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path, token string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// healthz stays open for probes.
	if got := get("/healthz", ""); got != http.StatusOK {
		t.Errorf("healthz without token: status %d", got)
	}
	// /v2/* requires the exact token.
	if got := get("/v2/labelers/x/report", ""); got != http.StatusUnauthorized {
		t.Errorf("missing token: status %d, want 401", got)
	}
	if got := get("/v2/labelers/x/report", "wrong"); got != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", got)
	}
	if got := get("/v2/labelers/x/report", "s3cret"); got != http.StatusNotFound {
		t.Errorf("valid token: status %d, want 404 (unknown labeler, but authorized)", got)
	}
	if got := get("/v2/labelers/"+wsLabelerID("x", "alice")+"/report", "s3cret"); got != http.StatusNotFound {
		t.Errorf("valid token on a workspace labeler: status %d, want 404", got)
	}
}

func TestPerIPRateLimit(t *testing.T) {
	srv, _ := newTestServer(t, Config{RatePerSec: 1, RateBurst: 3})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statuses := map[int]int{}
	for i := 0; i < 6; i++ {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[resp.StatusCode]++
	}
	if statuses[http.StatusOK] != 3 || statuses[http.StatusTooManyRequests] != 3 {
		t.Fatalf("burst of 3 then 429s expected, got %v", statuses)
	}
}

func TestRateLimitRefill(t *testing.T) {
	l := newIPLimiter(10, 2)
	base := time.Now()
	now := base
	l.now = func() time.Time { return now }
	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst of 2 should be allowed")
	}
	if l.allow("a") {
		t.Fatal("third immediate request should be limited")
	}
	// Distinct IPs have distinct buckets.
	if !l.allow("b") {
		t.Fatal("other IP should be unaffected")
	}
	// 100ms at 10 rps refills one token.
	now = base.Add(100 * time.Millisecond)
	if !l.allow("a") {
		t.Fatal("refilled token should be allowed")
	}
	if l.allow("a") {
		t.Fatal("bucket should be empty again")
	}
}
