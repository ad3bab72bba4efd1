package server

import (
	"crypto/subtle"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/pkg/darwin"
)

// middleware wraps the mux with the optional bearer-token check and per-IP
// rate limit. Both are cheap enough to sit in front of every request;
// healthz stays unauthenticated so load balancers can probe it.
func (s *Server) middleware(next http.Handler) http.Handler {
	return Middleware(s.cfg.Token, s.cfg.RatePerSec, s.cfg.RateBurst, next)
}

// Middleware wraps next with the optional bearer-token check (token != "")
// and per-IP rate limit (ratePerSec > 0) — the same chain darwind mounts,
// reused by cmd/darwin-router in front of the router-served /v2 surface.
func Middleware(token string, ratePerSec float64, rateBurst int, next http.Handler) http.Handler {
	h := next
	if token != "" {
		h = requireBearer(token, h)
	}
	if ratePerSec > 0 {
		burst := float64(rateBurst)
		if burst <= 0 {
			burst = 2 * ratePerSec
		}
		h = newIPLimiter(ratePerSec, burst).wrap(h)
	}
	return h
}

// requireBearer enforces "Authorization: Bearer <token>" on /v2/* paths with
// a constant-time comparison.
func requireBearer(token string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v2/") {
			next.ServeHTTP(w, r)
			return
		}
		const prefix = "Bearer "
		auth := r.Header.Get("Authorization")
		if !strings.HasPrefix(auth, prefix) ||
			subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="darwind"`)
			writeV2Error(w, fmt.Errorf("%w: missing or invalid bearer token", darwin.ErrUnauthorized))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ipLimiter is a per-IP token bucket: each client IP accrues rate tokens
// per second up to burst, and each request costs one token.
type ipLimiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	rate    float64
	burst   float64
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the limiter map; when exceeded, replenished (full)
// buckets are pruned — they carry no state a fresh bucket would not.
const maxBuckets = 8192

func newIPLimiter(rate, burst float64) *ipLimiter {
	return &ipLimiter{
		buckets: make(map[string]*bucket),
		rate:    rate,
		burst:   burst,
		now:     time.Now,
	}
}

// allow takes one token from ip's bucket, reporting whether one was
// available.
func (l *ipLimiter) allow(ip string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[ip]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[ip] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked drops buckets that have fully replenished; if a flood of
// distinct IPs left nothing replenished, it evicts arbitrary buckets down
// to 3/4 capacity — an evicted IP at most re-gains one burst, which is the
// right trade against unbounded memory and O(n) rescans on every insert.
func (l *ipLimiter) pruneLocked(now time.Time) {
	for ip, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, ip)
		}
	}
	if len(l.buckets) >= maxBuckets {
		for ip := range l.buckets {
			delete(l.buckets, ip)
			if len(l.buckets) < maxBuckets*3/4 {
				break
			}
		}
	}
}

func (l *ipLimiter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ip := r.RemoteAddr
		if host, _, err := net.SplitHostPort(ip); err == nil {
			ip = host
		}
		if !l.allow(ip) {
			w.Header().Set("Retry-After", "1")
			writeV2Error(w, fmt.Errorf("%w: rate limit exceeded", darwin.ErrRateLimited))
			return
		}
		next.ServeHTTP(w, r)
	})
}
