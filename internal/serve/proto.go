// Package serve fronts the experiment harness with an HTTP/JSON service
// built to degrade gracefully rather than fall over: cost-based admission
// control with a bounded queue and load shedding, client deadlines
// propagated into cell execution, per-(workload, design) circuit breakers
// around the simulator, memory-pressure degradation, and a drain sequence
// that flips readiness before the listener closes. The serving layer adds
// no result semantics of its own — completed cells export byte-identically
// to the CLI's -json output, and a deadline-truncated request returns the
// same partial-result schema the CLI exports on SIGINT.
package serve

import "encoding/json"

// Stable machine-readable error codes carried by every non-200 response.
// Clients dispatch on these, never on message text.
const (
	// CodeBadRequest rejects malformed requests (unknown experiment names,
	// undecodable bodies). Not retryable.
	CodeBadRequest = "bad_request"
	// CodeQueueFull sheds load: the admission queue is at capacity.
	// Retryable after the advertised delay.
	CodeQueueFull = "queue_full"
	// CodeClientLimit enforces per-client fairness: this client already has
	// its maximum number of requests in the system. Retryable.
	CodeClientLimit = "client_limit"
	// CodeBreakerOpen reports an open circuit: cells this request needs
	// belong to a (workload, design) class that has been failing
	// deterministically. Retryable after the breaker's cooldown.
	CodeBreakerOpen = "breaker_open"
	// CodeOverloaded refuses work under critical memory pressure.
	// Retryable.
	CodeOverloaded = "overloaded"
	// CodeShed reports a queued request canceled by the server to relieve
	// pressure (largest-cost requests go first). Retryable.
	CodeShed = "shed"
	// CodeDraining reports a server in its shutdown drain. Retry against
	// another instance.
	CodeDraining = "draining"
	// CodeCanceled reports a request whose own context ended while queued.
	CodeCanceled = "canceled"
)

// RunRequest asks the service to execute a set of experiments.
type RunRequest struct {
	// Experiments names registered experiments (harness.Names).
	Experiments []string `json:"experiments"`
	// Client identifies the caller for per-client fairness accounting;
	// empty falls back to the remote address.
	Client string `json:"client,omitempty"`
	// TimeoutMS bounds the request. The deadline propagates into cell
	// execution: cells not settled when it expires are abandoned and the
	// response is marked partial. 0 uses the server default; values above
	// the server maximum are clamped.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`
}

// ExperimentResult is one experiment's outcome.
type ExperimentResult struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// Blocks is the experiment's rendered output, absent on failure.
	Blocks []string `json:"blocks,omitempty"`
	// Error describes a failure; Code is the stable harness error code
	// ("timeout", "panic", "canceled") when the failure was a classified
	// cell failure, empty otherwise.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// RunResponse carries the outcome of a RunRequest.
type RunResponse struct {
	Experiments []ExperimentResult `json:"experiments"`
	// Results holds the raw per-cell records for the request's cells, in
	// exactly the schema and sort order of the CLI's -json export. Cells
	// that failed or never started are absent — the same partial-result
	// schema the CLI produces when interrupted.
	Results json.RawMessage `json:"results"`
	// Partial is set when any requested cell is missing from Results
	// (deadline, breaker, failure, drain).
	Partial bool `json:"partial"`
	// Degraded is set when the server shed optional work (interval
	// sampling) under memory pressure while serving this request.
	Degraded bool `json:"degraded,omitempty"`
	// RequestID is the X-Request-ID the server echoed for this request —
	// transport metadata populated by the client from the response header,
	// never part of the response body.
	RequestID string `json:"-"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RetryAfterSec advises when to retry, mirroring the Retry-After
	// header. 0 means no advice.
	RetryAfterSec float64 `json:"retryAfterSec,omitempty"`
}

// HealthzResponse is the /healthz body: liveness plus just enough identity
// (schema generation, uptime, store occupancy) for an operator to tell
// which instance answered.
type HealthzResponse struct {
	Status string `json:"status"`
	// UptimeSec counts from Start; 0 before the server starts serving.
	UptimeSec float64 `json:"uptimeSec"`
	// SchemaVersion is the simulator generation this instance speaks
	// (system.SchemaVersion); mixed fleets show up here first.
	SchemaVersion string `json:"schemaVersion"`
	// Store reports the durable cell store, absent without -store.
	Store *StoreStats `json:"store,omitempty"`
}

// ExperimentInfo is one entry of the /v1/experiments listing.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

// StatsResponse is the /v1/stats snapshot.
type StatsResponse struct {
	Running     int    `json:"runningCost"`
	Queued      int    `json:"queuedRequests"`
	QueuedCost  int    `json:"queuedCost"`
	Shed        int    `json:"shedTotal"`
	Simulations int    `json:"simulations"`
	Memory      string `json:"memoryLevel"`
	// Breakers maps (workload/design) class to breaker state for every
	// class that has left the closed state at least once.
	Breakers map[string]string `json:"breakers,omitempty"`
	Draining bool              `json:"draining"`
	// Store reports the durable cell store's integrity and hit-rate
	// counters; absent when the server runs without -store.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the durable cell store's /v1/stats block: how much the
// store holds, how warm it is running, and what its integrity machinery has
// caught. Quarantined records were detected (checksum, schema, truncation)
// and moved aside with a logged reason — never served, never deleted.
type StoreStats struct {
	Records         int            `json:"records"`
	Bytes           int64          `json:"bytes"`
	Hits            int            `json:"hits"`
	Misses          int            `json:"misses"`
	HitRate         float64        `json:"hitRate"`
	Puts            int            `json:"puts"`
	Evictions       int            `json:"evictions"`
	Quarantined     int            `json:"quarantined"`
	Reasons         map[string]int `json:"quarantineReasons,omitempty"`
	OpenVerified    int            `json:"openVerified"`
	OpenQuarantined int            `json:"openQuarantined"`
}
