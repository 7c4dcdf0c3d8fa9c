package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBackoffWait pins the one retry rule the client and the fabric
// coordinator share: wait = max(Retry-After, a draw in (0, base·2^(n-1)]),
// clamped to the caller's cap (0 = none).
func TestBackoffWait(t *testing.T) {
	const base = 100 * time.Millisecond
	cases := []struct {
		name          string
		attempt       int
		advice, limit time.Duration
		lo, hi        time.Duration // wait must land in [lo, hi]
	}{
		{"no advice, first attempt", 1, 0, time.Second, 1, base},
		{"no advice, doubled", 3, 0, time.Second, 1, 4 * base},
		{"no advice, draw ceiling clamped", 10, 0, time.Second, 1, time.Second},
		{"no advice, no cap", 3, 0, 0, 1, 4 * base},
		{"huge attempt, no cap", 200, 0, 0, 1, 1<<63 - 1},
		{"advice above the draw", 1, 3 * time.Second, 10 * time.Second, 3 * time.Second, 3 * time.Second},
		{"advice above the draw, no cap", 2, 3 * time.Second, 0, 3 * time.Second, 3 * time.Second},
		{"advice above the cap", 1, 30 * time.Second, 10 * time.Second, 10 * time.Second, 10 * time.Second},
		{"advice below the draw ceiling", 4, time.Nanosecond, 0, time.Nanosecond, 8 * base},
	}
	for _, tc := range cases {
		b := NewBackoff(1)
		for i := 0; i < 50; i++ {
			if w := b.Wait(tc.attempt, base, tc.advice, tc.limit); w < tc.lo || w > tc.hi {
				t.Fatalf("%s: wait %v outside [%v, %v]", tc.name, w, tc.lo, tc.hi)
			}
		}
	}
}

// TestRetryAfterParsing: the header wins, the error body is the fallback,
// and malformed or absent advice reads as none.
func TestRetryAfterParsing(t *testing.T) {
	hdr := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	cases := []struct {
		name   string
		header string
		body   ErrorResponse
		want   time.Duration
	}{
		{"none", "", ErrorResponse{}, 0},
		{"header", "2", ErrorResponse{RetryAfterSec: 0.5}, 2 * time.Second},
		{"body fallback", "", ErrorResponse{RetryAfterSec: 1.5}, 1500 * time.Millisecond},
		{"malformed header", "soon", ErrorResponse{RetryAfterSec: 0.25}, 250 * time.Millisecond},
		{"zero header", "0", ErrorResponse{}, 0},
	}
	for _, tc := range cases {
		if got := RetryAfter(hdr(tc.header), tc.body); got != tc.want {
			t.Errorf("%s: RetryAfter = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWriteErrorRoundTrip: what WriteError advertises, RetryAfter reads back
// (whole seconds, rounded up, in the header).
func TestWriteErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusServiceUnavailable, CodeOverloaded, "busy", 1200*time.Millisecond)
	if got := RetryAfter(rec.Header(), ErrorResponse{}); got != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", got)
	}
}
