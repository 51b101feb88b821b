package api

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RateLimiter is a per-key token-bucket limiter. Each key (the client
// IP in the middleware below) owns a bucket of Burst tokens refilled at
// Rate tokens per second; a request spends one token. It backstops the
// hot proxy routes and the stream publish ingress against a runaway or
// hostile client without throttling the well-behaved ones.
type RateLimiter struct {
	// Rate is the sustained request rate per key (tokens per second).
	Rate float64
	// Burst is the bucket capacity (instantaneous excursion allowance).
	Burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test hook

	allowed  uint64
	rejected uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds limiter memory under hostile key cardinality; when
// exceeded, buckets idle long enough to have refilled completely are
// discarded (dropping them only ever gives a key back its full burst).
const maxBuckets = 16384

// NewRateLimiter creates a limiter allowing rate requests/second with
// the given burst capacity per key.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{
		Rate:    rate,
		Burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// WithClock overrides the limiter's clock (tests).
func (rl *RateLimiter) WithClock(now func() time.Time) *RateLimiter {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.now = now
	return rl
}

// Allow reports whether one request for key may proceed now. When it
// may not, the returned duration is how long the key must wait for the
// next token — the Retry-After hint.
func (rl *RateLimiter) Allow(key string) (bool, time.Duration) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= maxBuckets && rl.pruneLocked(now) == 0 {
			// Nothing idle enough to forget for free: evict an arbitrary
			// bucket so the cap holds strictly. The evicted key regains
			// its full burst, which degrades fairness, not safety.
			for k := range rl.buckets {
				delete(rl.buckets, k)
				break
			}
		}
		b = &bucket{tokens: rl.Burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens = math.Min(rl.Burst, b.tokens+now.Sub(b.last).Seconds()*rl.Rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		rl.allowed++
		return true, 0
	}
	rl.rejected++
	wait := time.Duration((1 - b.tokens) / rl.Rate * float64(time.Second))
	return false, wait
}

// LimiterStats is a snapshot of one limiter's configuration and
// cumulative counters; Tier is the route-class label the limiter was
// registered under (Metrics.RegisterLimiter).
type LimiterStats struct {
	Tier     string  `json:"tier,omitempty"`
	Rate     float64 `json:"rate"`
	Burst    float64 `json:"burst"`
	Allowed  uint64  `json:"allowed"`
	Rejected uint64  `json:"rejected"`
	Buckets  int     `json:"buckets"`
}

// Stats returns a snapshot of the limiter counters.
func (rl *RateLimiter) Stats() LimiterStats {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return LimiterStats{
		Rate: rl.Rate, Burst: rl.Burst,
		Allowed: rl.allowed, Rejected: rl.rejected,
		Buckets: len(rl.buckets),
	}
}

// pruneLocked drops buckets that have fully refilled (forgetting them
// is free) and returns how many it dropped.
func (rl *RateLimiter) pruneLocked(now time.Time) int {
	full := time.Duration(rl.Burst / rl.Rate * float64(time.Second))
	freed := 0
	for key, b := range rl.buckets {
		if now.Sub(b.last) >= full {
			delete(rl.buckets, key)
			freed++
		}
	}
	return freed
}

// Len returns the number of live buckets (tests, introspection).
func (rl *RateLimiter) Len() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}

// clientIP extracts the bucket key from a request: the connection's
// remote IP. (No X-Forwarded-For here — this infrastructure's services
// face each other, not a trusted reverse proxy.)
func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// RateLimit wraps a handler with per-client-IP token-bucket limiting.
// Rejected requests draw a 429 envelope with a Retry-After header in
// whole seconds (rounded up), which the shared client transport honours
// before its next retry attempt.
func RateLimit(rl *RateLimiter) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ok, wait := rl.Allow(clientIP(r))
			if !ok {
				secs := int(math.Ceil(wait.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				WriteError(w, r, WithStatus(http.StatusTooManyRequests,
					fmt.Errorf("rate limit exceeded, retry in %ds", secs)))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
