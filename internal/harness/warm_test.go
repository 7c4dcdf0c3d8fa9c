package harness

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dylect/internal/engine"
	"dylect/internal/system"
)

// warmConfig covers both page sizes and PTB embedding (fig3, motivation)
// next to a design sweep (fig17), so one plan has several cells per WarmKey.
func warmConfig() (Config, []Experiment) {
	cfg := smallConfig()
	var exps []Experiment
	for _, n := range []string{"fig3", "motivation", "fig17"} {
		e, _ := ByName(n)
		exps = append(exps, e)
	}
	return cfg, exps
}

// TestSharedWarmupMatchesPrivateWarmup: a plan run with shared WarmStates
// exports exactly the bytes of the same cells each warmed privately, and
// the settled runner retains no WarmState.
func TestSharedWarmupMatchesPrivateWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, exps := warmConfig()
	shared := NewRunner(cfg)
	if _, err := RunExperiments(shared, exps, ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	private := NewRunner(cfg)
	for _, key := range planCells(cfg, exps) {
		if _, err := private.result(key); err != nil {
			t.Fatal(err)
		}
	}
	a, err := shared.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := private.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("shared-warmup export differs from private-warmup export")
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if len(shared.warm) != 0 || len(shared.warmHolds) != 0 {
		t.Fatalf("settled runner retains %d WarmStates and %d holds", len(shared.warm), len(shared.warmHolds))
	}
}

func warmKeys(t *testing.T, r *Runner) (a1, a2, b runKey) {
	t.Helper()
	huge := r.normalize(defaultVariant())
	small := huge
	small.hugePages = false
	a1 = runKey{workload: "omnetpp", design: system.DesignTMCC, setting: system.SettingHigh, variant: huge}
	a2 = runKey{workload: "omnetpp", design: system.DesignDyLeCT, setting: system.SettingHigh, variant: huge}
	b = runKey{workload: "omnetpp", design: system.DesignTMCC, setting: system.SettingHigh, variant: small}
	return a1, a2, b
}

// TestSharedWarmClaimOnce: the first cell of a WarmKey claims the
// computation, later cells wait for and receive the published state, a
// claim settled without a state passes to the next cell, and settling
// every holder drops the state.
func TestSharedWarmClaimOnce(t *testing.T) {
	r := NewRunner(microConfig())
	a1, a2, b := warmKeys(t, r)
	r.holdWarm([]runKey{a1, a2, b})
	if len(r.warm) != 2 {
		t.Fatalf("plan of two WarmKeys created %d flights", len(r.warm))
	}
	ctx := context.Background()
	ws, claim, err := r.sharedWarm(ctx, a1)
	if ws != nil || claim == nil || err != nil {
		t.Fatalf("first cell: ws=%v claim=%v err=%v, want a claim", ws, claim, err)
	}
	// An abandoned claim passes to the next cell.
	claim.publish(nil)
	_, claim, _ = r.sharedWarm(ctx, a2)
	if claim == nil {
		t.Fatal("claim settled without a state did not pass to the next cell")
	}
	got := make(chan *system.WarmState)
	go func() {
		ws, _, _ := r.sharedWarm(ctx, a1)
		got <- ws
	}()
	want := &system.WarmState{}
	claim.publish(want)
	claim.publish(nil) // a second publish is a no-op
	if ws := <-got; ws != want {
		t.Fatal("waiting cell did not receive the published state")
	}
	if _, c, _ := r.sharedWarm(ctx, b); c == nil {
		t.Fatal("a second WarmKey shares the first's flight")
	}
	r.mu.Lock()
	for _, k := range []runKey{a1, a2, b} {
		r.releaseWarmLocked(k)
	}
	n := len(r.warm)
	r.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d WarmStates outlive their holders", n)
	}
	// A cell outside any plan computes privately.
	if ws, c, err := r.sharedWarm(ctx, a1); ws != nil || c != nil || err != nil {
		t.Fatal("an unplanned cell was handed shared warmup")
	}
}

// TestWarmWaiterHoldsNoSlot: with two jobs, one cell computing a WarmState
// and a second cell waiting for it, a third cell of another WarmKey still
// gets a worker slot. A waiter that pinned a slot would starve it, and the
// computing cell's hook would time out waiting for it.
func TestWarmWaiterHoldsNoSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := microConfig()
	cfg.WarmupAccesses = 5_000
	cfg.Window = 5 * engine.Microsecond
	r := NewRunner(cfg)
	r.SetJobs(2)
	a1, a2, b := warmKeys(t, r)
	bDone := make(chan struct{})
	computing := make(chan struct{})
	var once sync.Once
	r.SetCellHook(func(key string) error {
		if key != b.String() {
			once.Do(func() { close(computing) })
			select {
			case <-bDone:
			case <-time.After(10 * time.Second):
				return errors.New("cell of another WarmKey never ran")
			}
		}
		return nil
	})
	r.holdWarm([]runKey{a1, a2, b})
	errs := make(chan error, 3)
	run := func(k runKey) {
		_, err := r.result(k)
		errs <- err
	}
	go run(a1)
	<-computing
	go run(a2)
	time.Sleep(50 * time.Millisecond) // let a2 reach its wait
	_, err := r.result(b)
	close(bDone)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueuedCellWallExcludesQueueWait: a cell queued behind a held worker
// slot reports its wait as QueueNS, not as execution time.
func TestQueuedCellWallExcludesQueueWait(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := microConfig()
	cfg.WarmupAccesses = 2_000
	cfg.Window = 2 * engine.Microsecond
	r := NewRunner(cfg) // one job
	const hold = 300 * time.Millisecond
	var mu sync.Mutex
	settled := map[string]CellSettlement{}
	r.SetCellTelemetry(func(s CellSettlement) {
		mu.Lock()
		settled[s.Key] = s
		mu.Unlock()
	})
	first := "omnetpp/nocomp/none"
	started := make(chan struct{})
	r.SetCellHook(func(key string) error {
		if key == first {
			close(started)
			time.Sleep(hold)
		}
		return nil
	})
	done := make(chan error)
	go func() {
		_, err := r.Result("omnetpp", system.DesignNoComp, system.SettingNone)
		done <- err
	}()
	<-started
	if _, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	q := settled["omnetpp/tmcc/high"]
	if time.Duration(q.QueueNS) < hold/2 {
		t.Fatalf("queued cell reports %v of queue wait behind a %v slot hold", time.Duration(q.QueueNS), hold)
	}
	if q.WallNS >= q.QueueNS {
		t.Fatalf("queued cell's WallNS %v includes its queue wait %v", time.Duration(q.WallNS), time.Duration(q.QueueNS))
	}
	if f := settled[first]; time.Duration(f.WallNS) < hold {
		t.Fatalf("slot holder's WallNS %v is shorter than its %v execution", time.Duration(f.WallNS), hold)
	}
}
