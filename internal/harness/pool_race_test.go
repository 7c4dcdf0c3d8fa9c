package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dylect/internal/system"
)

// TestThreeWayCancelTimeoutRetryRace drives the pool's cancellation and
// watchdog mechanisms into the same cell at once, with concurrent waiters
// racing the single-flight wait path (the suite runs under -race in CI):
// every attempt hangs (arming the per-cell watchdog), and the runner
// context is canceled at a sweep of offsets that land before the start
// gate, inside the hung attempt, and after the watchdog has fired.
// Whatever interleaving wins, every requester must get a coded error within
// a bounded time — no deadlock, no uncoded failure, no false success.
func TestThreeWayCancelTimeoutRetryRace(t *testing.T) {
	offsets := []time.Duration{
		0,                      // cancel before anything starts
		2 * time.Millisecond,   // usually inside the hung attempt
		6 * time.Millisecond,   // usually inside the hung attempt
		12 * time.Millisecond,  // usually just after the watchdog fired
		100 * time.Millisecond, // after the watchdog has fired
	}
	for _, cancelAfter := range offsets {
		t.Run(fmt.Sprintf("cancel=%s", cancelAfter), func(t *testing.T) {
			r := NewRunner(microConfig())
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })

			r.SetCellHook(func(cellKey string) error {
				// Hang until test cleanup; the watchdog abandons us. The
				// post-release error keeps the abandoned goroutine from
				// running a full simulation in the background.
				<-release
				return errors.New("released after abandonment")
			})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r.Configure(ExecOptions{Jobs: 1, Context: ctx, CellTimeout: 10 * time.Millisecond})
			time.AfterFunc(cancelAfter, cancel)

			// Four concurrent requesters: one becomes the starter, the rest
			// exercise the ctx-aware waiter path.
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("pool deadlocked under cancel+timeout contention")
			}

			for i, err := range errs {
				if err == nil {
					t.Fatalf("requester %d reported success; the cell can only fail", i)
				}
				if code := CellErrorCode(err); code == nil {
					t.Errorf("requester %d: uncoded failure: %v", i, err)
				}
			}
		})
	}
}

// TestViewDeadlineAbandonsWaitButNotSimulation: a request-scoped view whose
// deadline expires stops waiting with ErrCanceled, while the simulation
// keeps running for the shared cache — a later requester gets the memoized
// result without re-simulating, and ExportJSONFor sees the completed cell.
func TestViewDeadlineAbandonsWaitButNotSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	r.Configure(ExecOptions{Jobs: 2})

	started := make(chan struct{})
	var once sync.Once
	r.SetCellHook(func(cellKey string) error {
		once.Do(func() { close(started) })
		return nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	view := r.WithContext(ctx)

	viewErr := make(chan error, 1)
	go func() {
		_, err := view.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
		viewErr <- err
	}()
	<-started
	cancel() // deadline expires mid-simulation
	err := <-viewErr
	if err == nil {
		t.Fatal("view returned a result after its deadline expired")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned wait not classified as ErrCanceled: %v", err)
	}

	// The starter was the view itself, so its attempt was abandoned and the
	// canceled cell evicted. A requester with a live context re-attempts
	// and succeeds; the export then contains exactly that cell.
	res, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err != nil || res == nil || res.Insts == 0 {
		t.Fatalf("shared runner cannot recover the cell after a view deadline: %v", err)
	}
	e, ok := ByName("fig4")
	if !ok {
		t.Fatal("fig4 missing")
	}
	data, err := r.ExportJSONFor([]Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty scoped export")
	}
}
