package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Backoff is the retry schedule shared by the service client and the fabric
// coordinator: full-jitter exponential backoff that a server's Retry-After
// advice can raise but never lower. Safe for concurrent use.
type Backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff seeds the jitter source, so tests reproduce their schedules.
// Jitter is scheduling, not simulation: it never reaches an exported byte.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{rng: rand.New(rand.NewSource(seed))}
}

// Wait returns the wait before the given (1-based) retry attempt: a uniform
// draw in (0, base·2^(attempt-1)], raised to retryAfter when that is longer,
// clamped to limit (0 = no clamp). base must be positive. Full jitter
// decorrelates callers that were rejected together; the clamp keeps a
// server deep in its own cooldown schedule from parking a caller for
// minutes.
func (b *Backoff) Wait(attempt int, base, retryAfter, limit time.Duration) time.Duration {
	ceiling := limit
	if ceiling <= 0 {
		ceiling = math.MaxInt64
	}
	d := ceiling
	if shift := attempt - 1; shift < 63 && base <= ceiling>>shift {
		d = base << shift
	}
	b.mu.Lock()
	w := time.Duration(b.rng.Int63n(int64(d))) + 1
	b.mu.Unlock()
	w = max(w, retryAfter)
	if limit > 0 {
		w = min(w, limit)
	}
	return w
}

// RetryAfter reads a rejection's retry advice: the Retry-After header
// (delay-seconds), else the error body's RetryAfterSec; 0 when neither
// advises.
func RetryAfter(h http.Header, er ErrorResponse) time.Duration {
	if sec, err := strconv.Atoi(h.Get("Retry-After")); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	if er.RetryAfterSec > 0 {
		return time.Duration(er.RetryAfterSec * float64(time.Second))
	}
	return 0
}

// WriteError emits the uniform error body plus a Retry-After header (whole
// seconds, rounded up) when there is advice to give.
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, RetryAfterSec: retryAfter.Seconds()})
}
