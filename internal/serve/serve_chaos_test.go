package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dylect/internal/faults"
	"dylect/internal/harness"
)

// TestChaosSoak is the service's survival test: six concurrent retrying
// clients hammer a server whose cells are scripted to panic (omnetpp/naive,
// never healing), hang (omnetpp/dylect, first attempt only), and return an
// error (omnetpp/nocomp, first attempt only). The service must keep every
// promise at once under the storm:
//
//   - no request ever observes an internal error (5xx without a stable code),
//   - every complete fig4 response is byte-identical to every other and to a
//     direct in-process run,
//   - the permanently panicking class trips its breaker while unrelated
//     classes keep serving,
//   - the final drain is clean and no goroutines are left behind.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy soak")
	}
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })

	s, ts := newTestServer(t, ctx, func(o *Options) {
		// Must comfortably exceed a real cell's simulation time under the
		// race detector (~4s); only the scripted hang should ever trip it.
		o.CellTimeout = 15 * time.Second
		o.MaxCost = 4
		o.MaxQueue = 8
		o.PerClient = 2
		o.Breaker = BreakerConfig{
			Threshold:   2,
			Cooldown:    100 * time.Millisecond,
			MaxCooldown: 500 * time.Millisecond,
		}
	})
	ci := faults.NewCellInjector()
	// naive panics on every attempt: its breaker must open and stay open.
	ci.Script("omnetpp/naive", faults.CellSpec{Kind: faults.CellPanic})
	// dylect hangs once into the watchdog, then heals.
	ci.Script("omnetpp/dylect", faults.CellSpec{Kind: faults.CellHang, Fail: 1, Release: release})
	// nocomp fails once, then heals: service mode evicts the failed cell,
	// so a later request re-attempts it.
	ci.Script("omnetpp/nocomp", faults.CellSpec{Kind: faults.CellError, Fail: 1})
	s.Runner().SetCellHook(ci.Hook)

	plans := [][]string{{"fig4"}, {"naive"}, {"table3"}, {"fig4", "table3"}, {"table1"}}

	type outcome struct {
		client int
		req    []string
		resp   *RunResponse
		err    error
	}
	const clients, perClient = 6, 5
	outcomes := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL, int64(1000+i))
			c.MaxAttempts = 8
			c.BaseBackoff = 10 * time.Millisecond
			c.MaxBackoff = 300 * time.Millisecond
			for j := 0; j < perClient; j++ {
				req := plans[(i+j)%len(plans)]
				resp, err := c.Run(ctx, RunRequest{
					Experiments: req,
					Client:      fmt.Sprintf("chaos-%d", i),
				})
				outcomes <- outcome{client: i, req: req, resp: resp, err: err}
			}
		}(i)
	}
	wg.Wait()
	close(outcomes)

	var fig4Results []string
	completed := 0
	for o := range outcomes {
		if o.err != nil {
			// Rejections (even after exhausted retries) must surface as
			// typed API errors with stable codes — never internal errors.
			var apiErr *APIError
			if !errors.As(o.err, &apiErr) {
				t.Fatalf("client %d %v: non-API error escaped: %v", o.client, o.req, o.err)
			}
			if apiErr.Status == http.StatusInternalServerError {
				t.Fatalf("client %d %v: internal error: %v", o.client, o.req, apiErr)
			}
			if apiErr.Code == "" {
				t.Fatalf("client %d %v: codeless rejection: %v", o.client, o.req, apiErr)
			}
			continue
		}
		completed++
		if o.req[0] == "fig4" && !o.resp.Partial {
			fig4Results = append(fig4Results, string(o.resp.Results))
		}
	}
	if completed == 0 {
		t.Fatal("chaos storm completed zero requests")
	}
	if len(fig4Results) == 0 {
		t.Fatal("no complete fig4 responses to compare")
	}
	for i, r := range fig4Results {
		if r != fig4Results[0] {
			t.Fatalf("fig4 result %d differs from result 0 under chaos", i)
		}
	}

	// Completed results must match a direct, unfaulted in-process run byte
	// for byte — injected faults may delay or refuse work, never corrupt it.
	direct := harness.NewRunner(testConfig())
	direct.Configure(harness.ExecOptions{Jobs: 4})
	exps := mustExperiments(t, "fig4")
	for _, out := range harness.RunShared(direct, exps) {
		if out.Err != nil {
			t.Fatalf("direct run failed: %v", out.Err)
		}
	}
	want, err := direct.ExportJSONFor(exps)
	if err != nil {
		t.Fatal(err)
	}
	if fig4Results[0] != string(want) {
		t.Errorf("served fig4 under chaos differs from direct run: %d vs %d bytes",
			len(fig4Results[0]), len(want))
	}

	// The once-failing cell healed through service-mode eviction: its
	// failure was not memoized, so a later request re-attempted it.
	if got := ci.Attempts("omnetpp/nocomp"); got < 2 {
		t.Errorf("omnetpp/nocomp attempted %d times; eviction never re-attempted it", got)
	}

	// The permanently failing class is isolated behind its breaker; the
	// classes fig4/table1 need stayed serviceable (completed > 0 proves it).
	if state := s.Breaker().State("omnetpp/naive"); state == "closed" {
		t.Errorf("permanently panicking class still closed: %s", state)
	}
	if _, ok := s.Breaker().Tripped()["omnetpp/naive"]; !ok {
		t.Errorf("tripped listing missing omnetpp/naive: %v", s.Breaker().Tripped())
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if !s.Drain(dctx) {
		t.Error("drain after the storm was not clean")
	}
}
