package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/serve"
	"dylect/internal/system"
	"dylect/internal/telemetry"
)

// microCfg mirrors the harness micro test config: one workload, tiny
// footprint, short window — cells settle in milliseconds.
func microCfg() harness.Config {
	return harness.Config{
		Workloads:      []string{"omnetpp"},
		ScaleDivisor:   16,
		FootprintFloor: 64 << 20,
		WarmupAccesses: 30_000,
		Window:         15 * engine.Microsecond,
		Audit:          true,
	}
}

// microSpec is one concrete cell of microCfg, for direct Execute tests.
func microSpec() harness.CellSpec {
	return harness.CellSpec{
		Workload: "omnetpp",
		Design:   system.DesignTMCC.String(),
		Setting:  system.SettingHigh.String(),
	}
}

// testWorker is one in-process worker: a real runner behind the fabric
// handler set, with an optional middleware wrapping the cell endpoint to
// script transport-level faults the CellInjector cannot express.
func testWorker(t *testing.T, cfg harness.Config, wrap func(http.HandlerFunc) http.HandlerFunc) (*httptest.Server, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(cfg)
	w := NewWorker(WorkerOptions{
		Runner:     r,
		ConfigHash: harness.ConfigHash(cfg),
		Schema:     system.SchemaVersion,
	})
	mux := http.NewServeMux()
	w.Register(mux)
	if wrap != nil {
		inner := mux
		outer := http.NewServeMux()
		outer.HandleFunc(CellPath, wrap(func(rw http.ResponseWriter, req *http.Request) {
			inner.ServeHTTP(rw, req)
		}))
		outer.Handle("/", inner)
		mux = outer
	}
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, req *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, r
}

// newCoordinator builds a coordinator with fast test timings and a live
// metrics registry; the heartbeat is not started unless the test needs it.
func newCoordinator(workers []string, mut func(*Config)) (*Coordinator, *Metrics) {
	met := NewMetrics(telemetry.NewRegistry())
	cfg := Config{
		Workers:      workers,
		ConfigHash:   harness.ConfigHash(microCfg()),
		Schema:       system.SchemaVersion,
		HedgeAfter:   time.Minute, // hedging off unless the test opts in
		RetryBackoff: 5 * time.Millisecond,
		Metrics:      met,
		Seed:         1,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg), met
}

// TestFabricClusterByteIdentity is the tentpole oracle in-process: a
// two-worker cluster sweep exports byte-for-byte what a single-process run
// exports.
func TestFabricClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := harness.ByName("fig19")
	if !ok {
		t.Fatal("fig19 missing")
	}
	cfg := microCfg()

	ref := harness.NewRunner(cfg)
	if _, err := harness.RunExperiments(ref, []harness.Experiment{e}, harness.ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	w1, _ := testWorker(t, cfg, nil)
	w2, _ := testWorker(t, cfg, nil)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	cr := harness.NewRunner(cfg)
	cr.SetRemoteExecutor(coord.Execute)
	if _, err := harness.RunExperiments(cr, []harness.Experiment{e}, harness.ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := cr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("cluster export differs from single-process run: %d vs %d bytes", len(got), len(want))
	}
	okTotal := met.Dispatches.Value(w1.URL, OutcomeOK) + met.Dispatches.Value(w2.URL, OutcomeOK)
	if okTotal == 0 {
		t.Error("no ok dispatches recorded; cells did not go over the fabric")
	}
	if met.Dispatches.Value(w1.URL, OutcomeOK) == 0 || met.Dispatches.Value(w2.URL, OutcomeOK) == 0 {
		t.Logf("note: dispatch spread w1=%.0f w2=%.0f (ring may legitimately favor one for a tiny sweep)",
			met.Dispatches.Value(w1.URL, OutcomeOK), met.Dispatches.Value(w2.URL, OutcomeOK))
	}
}

// TestFabricOrphanRedispatch kills the transport mid-flight on the first
// dispatch a worker receives: the coordinator must count an orphan and
// settle the cell on the other worker with a verified payload.
func TestFabricOrphanRedispatch(t *testing.T) {
	cfg := microCfg()
	var aborted atomic.Bool
	abortFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if aborted.CompareAndSwap(false, true) {
				// Drop the connection without a response: the wire-level
				// signature of a SIGKILLed worker.
				panic(http.ErrAbortHandler)
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, abortFirst)
	w2, _ := testWorker(t, cfg, abortFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload")
	}
	if !aborted.Load() {
		t.Fatal("fault never fired")
	}
	if met.Orphans.Value() < 1 {
		t.Errorf("orphans = %.0f, want >= 1", met.Orphans.Value())
	}
	orphaned := met.Dispatches.Value(w1.URL, OutcomeOrphaned) + met.Dispatches.Value(w2.URL, OutcomeOrphaned)
	okCount := met.Dispatches.Value(w1.URL, OutcomeOK) + met.Dispatches.Value(w2.URL, OutcomeOK)
	if orphaned < 1 || okCount < 1 {
		t.Errorf("dispatches: orphaned=%.0f ok=%.0f, want both >= 1", orphaned, okCount)
	}
}

// TestFabricVerifyFailedRedispatch makes the first dispatch return bytes
// that fail envelope verification: the coordinator must reject them, ask
// the worker to re-verify its copy, and re-dispatch elsewhere.
func TestFabricVerifyFailedRedispatch(t *testing.T) {
	cfg := microCfg()
	var corrupted atomic.Bool
	corruptFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if corrupted.CompareAndSwap(false, true) {
				// A structurally-valid envelope whose checksum cannot match.
				rw.Header().Set("Content-Type", "application/json")
				rw.Write([]byte(`{"format":1,"schema":"` + system.SchemaVersion +
					`","key":"bogus","sha256":"00","payload":{}}`))
				return
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, corruptFirst)
	w2, _ := testWorker(t, cfg, corruptFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !corrupted.Load() {
		t.Fatal("corruption never served")
	}
	// The settled payload must decode as a verified envelope again on our
	// side — prove the corrupt bytes were not adopted.
	if strings.Contains(string(payload), `"sha256":"00"`) {
		t.Fatal("corrupt envelope leaked through verification")
	}
	vf := met.Dispatches.Value(w1.URL, OutcomeVerifyFailed) + met.Dispatches.Value(w2.URL, OutcomeVerifyFailed)
	if vf < 1 {
		t.Errorf("verify-failed dispatches = %.0f, want >= 1", vf)
	}
}

// TestFabricHedgeStraggler blocks the primary dispatch long enough for the
// hedge to fire on the other replica and win.
func TestFabricHedgeStraggler(t *testing.T) {
	cfg := microCfg()
	release := make(chan struct{})
	var stalled atomic.Bool
	stallFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if stalled.CompareAndSwap(false, true) {
				<-release // straggle until the test ends
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, stallFirst)
	w2, _ := testWorker(t, cfg, stallFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, func(c *Config) {
		c.HedgeAfter = 30 * time.Millisecond
	})
	defer close(release)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload")
	}
	if met.Hedges.Value("fired") < 1 {
		t.Errorf("hedges fired = %.0f, want >= 1", met.Hedges.Value("fired"))
	}
	if met.Hedges.Value("won") < 1 {
		t.Errorf("hedges won = %.0f, want >= 1", met.Hedges.Value("won"))
	}
}

// TestFabricConfigMismatchEvicts proves a worker running a different config
// is evicted from the ring on first contact instead of being retried.
func TestFabricConfigMismatchEvicts(t *testing.T) {
	other := microCfg()
	other.WarmupAccesses++ // a different sweep identity
	w1, _ := testWorker(t, other, nil)
	coord, _ := newCoordinator([]string{w1.URL}, func(c *Config) {
		c.Attempts = 2
	})

	_, err := coord.Execute(context.Background(), microSpec())
	if err == nil {
		t.Fatal("Execute succeeded against a mismatched worker")
	}
	if !strings.Contains(err.Error(), "no live workers") && !strings.Contains(err.Error(), CodeConfigMismatch) {
		t.Errorf("error %q names neither the mismatch nor the empty ring", err)
	}
	if coord.RingSize() != 0 {
		t.Errorf("ring size = %d after config mismatch, want 0", coord.RingSize())
	}
}

// TestFabricHonorsRetryAfter: a worker's Retry-After advice raises the
// coordinator's backoff past its 5ms jitter ceiling, so a cooldown that
// cannot finish before the cell's deadline fails at once with the deadline
// instead of re-dispatching into the cooldown.
func TestFabricHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		serve.WriteError(rw, http.StatusServiceUnavailable, serve.CodeOverloaded, "busy", 30*time.Second)
	}))
	defer w.Close()
	coord, _ := newCoordinator([]string{w.URL}, func(c *Config) {
		c.Attempts = 3
		c.DeadAfter = 10 // keep the worker in the ring across failures
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := coord.Execute(ctx, microSpec())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("took %v: the coordinator slept into a hopeless cooldown", waited)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("worker dispatched %d times, want 1 (advice ignored)", n)
	}
}

// TestFabricMembershipEndpoints drives join and leave over HTTP the way
// workers announce themselves.
func TestFabricMembershipEndpoints(t *testing.T) {
	coord, met := newCoordinator(nil, nil)
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(path, worker string) int {
		body, _ := json.Marshal(MemberRequest{Worker: worker})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(JoinPath, "http://10.0.0.1:8344"); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if coord.RingSize() != 1 || met.RingSize.Value() != 1 {
		t.Fatalf("ring size %d (gauge %.0f) after join", coord.RingSize(), met.RingSize.Value())
	}
	if code := post(LeavePath, "http://10.0.0.1:8344"); code != http.StatusOK {
		t.Fatalf("leave: status %d", code)
	}
	if coord.RingSize() != 0 || met.WorkersKnown.Value() != 0 {
		t.Fatalf("ring size %d (known %.0f) after leave", coord.RingSize(), met.WorkersKnown.Value())
	}
	// Malformed membership bodies are rejected.
	resp, err := http.Post(ts.URL+JoinPath, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad join body: status %d", resp.StatusCode)
	}
}

// TestFabricHeartbeatEvictsDeadWorker starts the heartbeat against a worker
// that is gone; after DeadAfter missed probes it must leave the ring.
func TestFabricHeartbeatEvictsDeadWorker(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port is now refused
	coord, _ := newCoordinator([]string{deadURL}, func(c *Config) {
		c.Heartbeat = 10 * time.Millisecond
		c.DeadAfter = 2
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	defer coord.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for coord.RingSize() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still in ring after %d+ missed heartbeats", 2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
